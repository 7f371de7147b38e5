#include "hw/dvfs.hh"

#include <algorithm>
#include <limits>

#include "hw/calibration.hh"

namespace charllm {
namespace hw {

DvfsGovernor::DvfsGovernor(const GpuSpec& s)
    : spec(s),
      edges{s.targetTempC.value(),
            (s.throttleTempC - CelsiusDelta(calib::kThermalHysteresisC))
                .value(),
            s.throttleTempC.value()}
{
}

void
DvfsGovernor::reset()
{
    clock = 1.0;
    reason = ThrottleReason::None;
}

std::pair<double, double>
DvfsGovernor::zoneBounds(int z) const
{
    // zone() tests the edges from the top down, so a band ends at the
    // lowest edge above it.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double lo = z == 0 ? -kInf : edges[static_cast<std::size_t>(z - 1)];
    double hi = kInf;
    for (int k = z; k < 3; ++k)
        hi = std::min(hi, edges[static_cast<std::size_t>(k)]);
    return {lo, hi};
}

ClockRel
DvfsGovernor::evaluate(Celsius temp, Watts power, bool compute_bound)
{
    using namespace calib;

    double min_rel = spec.minRel().value();
    double boost_rel = spec.boostRel().value();
    int band = zone(temp);

    if (band == 3) {
        // Hard thermal slowdown: step down proportionally to the
        // overshoot so deep excursions recover quickly.
        double overshoot = (temp - spec.throttleTempC).value();
        double steps = 1.0 + overshoot / 2.0;
        clock = std::max(min_rel, clock - kClockStepRel * steps);
        reason = ThrottleReason::Thermal;
    } else if (power > spec.tdpWatts) {
        clock = std::max(min_rel, clock - kClockStepRel);
        reason = ThrottleReason::PowerCap;
    } else if (band == 2) {
        // Hysteresis band just under the throttle point: hold the
        // derated clock (only boost clocks keep easing toward nominal).
        if (clock > 1.0)
            clock = std::max(1.0, clock - kClockStepRel);
    } else if (band == 1) {
        // Soft zone: ease toward nominal from either side. Recovery
        // toward 1.0 must happen here too, otherwise a clock throttled
        // below nominal is stuck while the temperature sits between the
        // setpoint and the hysteresis band (recovery dead zone).
        if (clock > 1.0)
            clock = std::max(1.0, clock - kClockStepRel);
        else if (clock < 1.0)
            clock = std::min(1.0, clock + kClockStepRel);
    } else {
        double ceiling = compute_bound ? boost_rel : 1.0;
        if (clock < ceiling)
            clock = std::min(ceiling, clock + kClockStepRel);
        else if (clock > ceiling)
            clock = std::max(ceiling, clock - kClockStepRel);
    }
    clock = std::clamp(clock, min_rel, boost_rel);
    // While the clock is still below nominal the device remains
    // residency-wise throttled: keep attributing the derate to its
    // cause instead of reporting None (which undercounted throttle
    // time in Fig. 20-style metrics).
    if (clock >= 1.0)
        reason = ThrottleReason::None;
    else if (reason == ThrottleReason::None)
        reason = ThrottleReason::Thermal;
    return ClockRel(clock);
}

} // namespace hw
} // namespace charllm
