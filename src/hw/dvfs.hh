/**
 * @file
 * Clock governor: thermal and power-cap throttling with hysteresis,
 * plus opportunistic boost when cool and compute-bound.
 */

#ifndef CHARLLM_HW_DVFS_HH
#define CHARLLM_HW_DVFS_HH

#include <array>
#include <utility>

#include "hw/gpu_spec.hh"

namespace charllm {
namespace hw {

/** Why the device's clock is currently limited. */
enum class ThrottleReason
{
    None,
    Thermal,
    PowerCap,
    Fault, //!< injected degradation (straggler, fail-stop derate)
};

/**
 * Per-GPU DVFS governor. Evaluated periodically with the device's
 * current temperature, power draw, and workload character; returns a
 * relative clock (1.0 = nominal).
 */
class DvfsGovernor
{
  public:
    explicit DvfsGovernor(const GpuSpec& spec);

    /**
     * One governor evaluation.
     *
     * @param temp current junction temperature
     * @param power current board power
     * @param compute_bound whether the active workload is SM-heavy
     *        (eligible for boost clocks when thermal headroom exists)
     * @return new relative clock in [minRel, boostRel]
     */
    ClockRel evaluate(Celsius temp, Watts power, bool compute_bound);

    /**
     * The temperature band evaluate() branches on: 0 below the
     * setpoint, 1 from the setpoint to the hysteresis band, 2 in the
     * hysteresis band, 3 at or above the throttle point. Inside one
     * band, with power and workload unchanged, an evaluation that left
     * the clock and reason as they were leaves them so again.
     */
    int
    zone(Celsius temp) const
    {
        double t = temp.value();
        return t >= edges[2] ? 3 : t >= edges[1] ? 2 : t >= edges[0] ? 1 : 0;
    }

    /** Band @p z of zone() as the interval [lo, hi) of temperatures. */
    std::pair<double, double> zoneBounds(int z) const;

    ClockRel clockRel() const { return ClockRel(clock); }
    ThrottleReason lastReason() const { return reason; }

    /** Reset to nominal clock. */
    void reset();

  private:
    GpuSpec spec;
    /** zone()'s band edges: the setpoint, the hysteresis band floor,
     *  the throttle point. */
    std::array<double, 3> edges;
    double clock = 1.0;
    ThrottleReason reason = ThrottleReason::None;
};

} // namespace hw
} // namespace charllm

#endif // CHARLLM_HW_DVFS_HH
