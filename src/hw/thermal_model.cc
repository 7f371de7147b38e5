#include "hw/thermal_model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "hw/calibration.hh"

namespace charllm {
namespace hw {

namespace {

/** Euler update factors per governor period: dt/tau and k dt. */
constexpr double kDecay = calib::kGovernorPeriodSec / calib::kThermalTauSec;
constexpr double kExchange =
    calib::kGovernorPeriodSec * calib::kPackageCouplingPerSec;
/** A GCD pair's steady difference over its uncoupled one. */
constexpr double kDiffGain = kDecay / (kDecay + 2.0 * kExchange);

} // namespace

ThermalModel::ThermalModel(const ChassisLayout& layout, int num_nodes,
                           double resistance)
    : chassis(layout), nodes(num_nodes),
      rTheta(resistance > 0.0 ? resistance : calib::kThermalResistance),
      logDecaySum(std::log1p(-kDecay)),
      logDecayDiff(std::log1p(-kDecay - 2.0 * kExchange)),
      stepSum(std::expm1(logDecaySum)), stepDiff(std::expm1(logDecayDiff)),
      // expm1(x) rounds to -1 below x = -38.
      settleTicks(static_cast<std::int64_t>(std::ceil(-40.0 / logDecaySum))),
      stale(static_cast<std::size_t>(std::max(num_nodes, 0)))
{
    CHARLLM_ASSERT(num_nodes > 0 && !layout.slots.empty(),
                   "invalid thermal layout");
    std::size_t n = static_cast<std::size_t>(num_nodes) *
                    layout.slots.size();
    temps.assign(n, calib::kRoomTempC);
    nextTemps.assign(n, 0.0);
    inletOffsets.assign(n, 0.0);
    faultRScale.assign(n, 1.0);
    modeSum.assign(n, 0.0);
    modeDiff.assign(n, 0.0);
    goals.assign(n, 0.0);
    anchorTick.assign(n, 0);
    for (int node = 0; node < num_nodes; ++node)
        markStale(node);
}

void
ThermalModel::setInletOffset(int i, CelsiusDelta delta)
{
    CHARLLM_ASSERT(i >= 0 && static_cast<std::size_t>(i) <
                                 inletOffsets.size(),
                   "device id ", i, " out of range");
    inletOffsets[static_cast<std::size_t>(i)] = delta.value();
    markStale(nodeOf(i));
}

void
ThermalModel::setResistanceScale(int i, double scale)
{
    CHARLLM_ASSERT(i >= 0 && static_cast<std::size_t>(i) <
                                 faultRScale.size(),
                   "device id ", i, " out of range");
    CHARLLM_ASSERT(scale > 0.0, "resistance scale must be positive");
    faultRScale[static_cast<std::size_t>(i)] = scale;
    markStale(nodeOf(i));
}

double
ThermalModel::resistanceScale(int i) const
{
    CHARLLM_ASSERT(i >= 0 && static_cast<std::size_t>(i) <
                                 faultRScale.size(),
                   "device id ", i, " out of range");
    return faultRScale[static_cast<std::size_t>(i)];
}

double
ThermalModel::inlet(int i, int slot, const std::vector<Watts>& powers) const
{
    int first = i - slot;
    double t = calib::kRoomTempC + inletOffsets[static_cast<std::size_t>(i)];
    double coeff = calib::kPreheatCoeffCPerW * chassis.preheatScale;
    for (const auto& [up_slot, weight] : chassis.slots[slot].upstream)
        t += coeff * weight *
             powers[static_cast<std::size_t>(first + up_slot)].value();
    return t;
}

Celsius
ThermalModel::inletTemperature(int i,
                               const std::vector<Watts>& powers) const
{
    return Celsius(inlet(i, i % chassis.gpusPerNode(), powers));
}

double
ThermalModel::target(int i, int slot, const std::vector<Watts>& powers) const
{
    return inlet(i, slot, powers) +
           powers[static_cast<std::size_t>(i)].value() * rTheta *
               chassis.slots[slot].resistanceScale *
               faultRScale[static_cast<std::size_t>(i)];
}

void
ThermalModel::step(Seconds dt, const std::vector<Watts>& powers)
{
    CHARLLM_ASSERT(powers.size() == temps.size(),
                   "power vector size mismatch");
    using namespace calib;
    int per_node = chassis.gpusPerNode();
    for (std::size_t i = 0; i < temps.size(); ++i) {
        int node = static_cast<int>(i) / per_node;
        int slot = static_cast<int>(i) % per_node;
        double dT = dt.value() / kThermalTauSec *
                    (target(static_cast<int>(i), slot, powers) - temps[i]);
        // Chiplet package coupling: heat flows toward the cooler GCD.
        int peer_slot = chassis.slots[slot].packagePeer;
        if (peer_slot >= 0) {
            std::size_t peer =
                static_cast<std::size_t>(node * per_node + peer_slot);
            dT += dt.value() * kPackageCouplingPerSec *
                  (temps[peer] - temps[i]);
        }
        nextTemps[i] = temps[i] + dT;
    }
    temps.swap(nextTemps);
}

Celsius
ThermalModel::steadyState(int i, const std::vector<Watts>& powers) const
{
    // Ignores package coupling, which at steady state scales a GCD
    // pair's difference by 1 / (1 + 2 k tau) ~ 0.51: this overstates
    // the intra-package skew about 2x (DESIGN.md section 9).
    return Celsius(target(i, i % chassis.gpusPerNode(), powers));
}

void
ThermalModel::warmStart(const std::vector<Watts>& powers)
{
    CHARLLM_ASSERT(powers.size() == temps.size(),
                   "power vector size mismatch");
    for (std::size_t i = 0; i < temps.size(); ++i)
        temps[i] = steadyState(static_cast<int>(i), powers).value();
    std::fill(modeSum.begin(), modeSum.end(), 0.0);
    std::fill(modeDiff.begin(), modeDiff.end(), 0.0);
    std::fill(anchorTick.begin(), anchorTick.end(), tickCount);
    for (int node = 0; node < nodes; ++node)
        markStale(node);
}

void
ThermalModel::reanchor(int node, const std::vector<Watts>& powers)
{
    int per_node = chassis.gpusPerNode();
    int first = node * per_node;
    // Every device's current temperature reads only its own closed
    // form, so they can be recorded in place before the anchor moves.
    for (int i = first; i < first + per_node; ++i) {
        auto d = static_cast<std::size_t>(i);
        temps[d] = temperatureAt(i, tickCount);
        anchorTick[d] = tickCount;
        goals[d] = target(i, i - first, powers);
    }
    for (int i = first; i < first + per_node; ++i) {
        auto d = static_cast<std::size_t>(i);
        int peer_slot = chassis.slots[i - first].packagePeer;
        if (peer_slot < 0) {
            // T_n - T_0 = (r^n - 1)(T_0 - T*).
            modeSum[d] = temps[d] - goals[d];
            modeDiff[d] = 0.0;
            continue;
        }
        // A GCD pair: the sum S = T_i + T_p relaxes to S* like a single
        // device; the difference D = T_i - T_p relaxes with the faster
        // r_D to D_inf = dt/tau D* / (dt/tau + 2 k dt).
        auto p = static_cast<std::size_t>(first + peer_slot);
        double sum_gap = (temps[d] + temps[p]) - (goals[d] + goals[p]);
        double diff_inf = kDiffGain * (goals[d] - goals[p]);
        double diff_gap = (temps[d] - temps[p]) - diff_inf;
        modeSum[d] = 0.5 * sum_gap;
        modeDiff[d] = 0.5 * diff_gap;
    }
}

double
ThermalModel::extremum(std::size_t d) const
{
    // d/dj [cS expm1(lS j) + cD expm1(lD j)] = 0 where
    // exp((lS - lD) j) = -(cD lD) / (cS lS), which needs cS, cD of
    // opposite signs.
    double q = -(modeDiff[d] * logDecayDiff) / (modeSum[d] * logDecaySum);
    if (!(q > 0.0) || !std::isfinite(q))
        return -1.0;
    return std::log(q) / (logDecaySum - logDecayDiff);
}

ThermalModel::Run
ThermalModel::run(int i, std::int64_t first, std::int64_t last) const
{
    Run r;
    if (last < first)
        return r;
    auto d = static_cast<std::size_t>(i);
    std::int64_t anchor = anchorTick[d];
    auto j0 = static_cast<double>(first - anchor);
    auto count = static_cast<double>(last - first + 1);
    // sum_{j=j0}^{j0+count-1} expm1(l j), a geometric series.
    auto series = [&](double l) {
        return std::exp(l * j0) * (std::expm1(l * count) / std::expm1(l)) -
               count;
    };
    r.sum = count * temps[d] + modeSum[d] * series(logDecaySum);
    if (modeDiff[d] != 0.0)
        r.sum += modeDiff[d] * series(logDecayDiff);
    double a = temperatureAt(i, first);
    double b = temperatureAt(i, last);
    r.lo = std::min(a, b);
    r.hi = std::max(a, b);
    // A GCD pair's closed form can turn once in between.
    double x = extremum(d);
    if (x > 0.0) {
        auto at = anchor + static_cast<std::int64_t>(std::floor(x));
        for (std::int64_t n : {at, at + 1}) {
            if (n > first && n < last) {
                double t = temperatureAt(i, n);
                r.lo = std::min(r.lo, t);
                r.hi = std::max(r.hi, t);
            }
        }
    }
    return r;
}

std::int64_t
ThermalModel::firstTickLeaving(int i, std::int64_t after, double lo,
                               double hi) const
{
    auto d = static_cast<std::size_t>(i);
    double in_lo = lo + kBandMargin;
    double in_hi = hi - kBandMargin;
    auto outside = [&](std::int64_t n) {
        double t = temperatureAt(i, n);
        return !(t >= in_lo && t < in_hi);
    };
    std::int64_t anchor = anchorTick[d];
    std::int64_t settled = std::max(anchor + settleTicks, after + 1);

    // First tick in [first, last] outside the margin, on a stretch
    // where the closed form is monotone: bisect once both ends are
    // known. The margin dwarfs rounding, so a point found inside has
    // no exit before it.
    auto search = [&](std::int64_t first, std::int64_t last) -> std::int64_t {
        if (first > last)
            return -1;
        if (outside(first))
            return first;
        if (!outside(last))
            return -1;
        std::int64_t in = first, out = last;
        while (out - in > 1) {
            std::int64_t mid = in + (out - in) / 2;
            (outside(mid) ? out : in) = mid;
        }
        return out;
    };

    double x = extremum(d);
    std::int64_t turn = after;
    if (x > 0.0)
        turn = std::clamp(anchor + static_cast<std::int64_t>(std::floor(x)),
                          after, settled);
    std::int64_t n = search(after + 1, turn);
    if (n < 0)
        n = search(turn + 1, settled);
    return n;
}

} // namespace hw
} // namespace charllm
