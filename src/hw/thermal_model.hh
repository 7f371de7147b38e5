/**
 * @file
 * Lumped RC thermal network for a cluster of GPUs with airflow-derived
 * inlet coupling (front-to-back preheat) and intra-package coupling on
 * chiplet devices.
 *
 * Per device i:
 *   C dT_i/dt = P_i - (T_i - T_in,i) / R
 *   T_in,i    = T_room + preheat * sum_j w_ij P_j      (upstream j)
 * plus, for GCD pairs, a conductive exchange term proportional to the
 * peer temperature difference.
 *
 * Two integrators advance the network by one governor period dt. step()
 * is the forward-Euler step, T' = T + dt/tau (T* - T) (+ the exchange
 * term), over every device. The closed form evaluates that same
 * recurrence at any tick n without iterating it: while a node's powers
 * hold, T_n = T* + r^n (T_0 - T*) with r = 1 - dt/tau; a GCD pair's sum
 * mode decays with r_S = 1 - dt/tau and its difference mode with
 * r_D = 1 - dt/tau - 2 k dt. A node is re-anchored (its current
 * temperatures and new targets recorded) only when its powers or
 * faults change, so a tick where nothing changed costs nothing.
 */

#ifndef CHARLLM_HW_THERMAL_MODEL_HH
#define CHARLLM_HW_THERMAL_MODEL_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/marked_set.hh"
#include "common/quantity.hh"
#include "hw/chassis.hh"

namespace charllm {
namespace hw {

/**
 * Thermal state integrator. The model owns only temperatures; power is
 * supplied each step (Euler) or at each re-anchor (closed form) by the
 * caller (the Platform). One model uses one of the two integrators.
 */
class ThermalModel
{
  public:
    /**
     * @param layout per-node airflow layout (replicated per node)
     * @param num_nodes number of identical nodes
     * @param resistance junction-to-inlet thermal resistance (degC/W);
     *        <= 0 selects the calibration default
     */
    ThermalModel(const ChassisLayout& layout, int num_nodes,
                 double resistance = 0.0);

    int numDevices() const { return static_cast<int>(temps.size()); }

    /** Current junction temperature of device @p i: after the last
     *  step(), or at ticks() under the closed form. */
    Celsius
    temperature(int i) const
    {
        return Celsius(temperatureAt(i, tickCount));
    }

    /** Inlet temperature of device @p i given current powers. */
    Celsius inletTemperature(int i, const std::vector<Watts>& powers) const;

    /**
     * Advance all temperatures by @p dt given instantaneous powers per
     * device.
     */
    void step(Seconds dt, const std::vector<Watts>& powers);

    /**
     * Analytical steady-state temperature for device @p i under
     * constant powers (used by tests and for fast warm starts).
     */
    Celsius steadyState(int i, const std::vector<Watts>& powers) const;

    /** Jump every device to its steady state for the given powers
     *  (held there: every node is marked stale). */
    void warmStart(const std::vector<Watts>& powers);

    // ---- closed form ----------------------------------------------------
    /** Governor periods advanced by advance(). */
    std::int64_t ticks() const { return tickCount; }

    /** Advance the closed form by @p k governor periods: O(1). */
    void advance(std::int64_t k = 1) { tickCount += k; }

    /**
     * Re-anchor @p node at the current tick: record its temperatures
     * there and take its targets from @p powers (read for this node's
     * devices only) and the current faults.
     */
    void reanchor(int node, const std::vector<Watts>& powers);

    /** Junction temperature of device @p i at tick @p n >= its node's
     *  anchor, under the node's current closed form. */
    double
    temperatureAt(int i, std::int64_t n) const
    {
        auto d = static_cast<std::size_t>(i);
        std::int64_t j = n - anchorTick[d];
        if (j == 0)
            return temps[d];
        auto jd = static_cast<double>(j);
        double t = temps[d] +
                   modeSum[d] *
                       (j == 1 ? stepSum : std::expm1(jd * logDecaySum));
        if (modeDiff[d] != 0.0)
            t += modeDiff[d] *
                 (j == 1 ? stepDiff : std::expm1(jd * logDecayDiff));
        return t;
    }

    /** Tick of device @p i's node's last anchor. */
    std::int64_t
    anchoredAt(int i) const
    {
        return anchorTick[static_cast<std::size_t>(i)];
    }

    /** Sum and range of temperatureAt(i, n) over first <= n <= last. */
    struct Run
    {
        double sum = 0.0;
        double lo = 0.0;
        double hi = 0.0;
    };
    Run run(int i, std::int64_t first, std::int64_t last) const;

    /**
     * First tick n > @p after at which device @p i's temperature leaves
     * [lo, hi) or comes within kBandMargin of either bound, found by an
     * integer search over temperatureAt() itself, so it is never later
     * than the true exit; -1 if it never does.
     */
    std::int64_t firstTickLeaving(int i, std::int64_t after, double lo,
                                  double hi) const;

    /** Margin (degC) firstTickLeaving() keeps from a band's bounds; it
     *  dwarfs the closed form's rounding. */
    static constexpr double kBandMargin = 1e-9;

    /** Mark @p node for re-anchoring (its powers changed). Every node
     *  starts marked. */
    void markStale(int node) { stale.mark(node); }
    /** Nodes marked since the last clearStale(), in marking order. */
    const std::vector<int>& staleNodes() const { return stale.ids(); }
    void clearStale() { stale.clear(); }

    /**
     * Fault injection: add @p delta to device @p i's inlet temperature
     * (models a machine-room hot spot / blocked cold aisle). Pass a
     * zero delta to clear. Both fault setters mark the node stale.
     */
    void setInletOffset(int i, CelsiusDelta delta);

    /**
     * Fault injection: multiply device @p i's junction-to-inlet
     * thermal resistance by @p scale >= 1 (models a failed fan or
     * degraded airflow over one heatsink). Pass 1 to restore.
     */
    void setResistanceScale(int i, double scale);
    double resistanceScale(int i) const;

    const ChassisLayout& layout() const { return chassis; }

  private:
    /** Inlet and target temperature of device @p i, in @p slot of its
     *  node, under @p powers. */
    double inlet(int i, int slot, const std::vector<Watts>& powers) const;
    double target(int i, int slot, const std::vector<Watts>& powers) const;

    /** Anchor-relative tick of a GCD pair member's one interior
     *  extremum, or -1 if its closed form is monotone. */
    double extremum(std::size_t d) const;

    int nodeOf(int i) const { return i / chassis.gpusPerNode(); }

    ChassisLayout chassis;
    int nodes;
    double rTheta;
    /** Per-period log decay of the sum (single-device) and difference
     *  (GCD pair) modes: log1p(-dt/tau), log1p(-dt/tau - 2 k dt). */
    double logDecaySum;
    double logDecayDiff;
    /** expm1 of the two, the closed form one tick past its anchor. */
    double stepSum;
    double stepDiff;
    /** Device temperatures: the current ones under step(), the ones at
     *  the node's anchor tick under the closed form. */
    std::vector<double> temps;
    /** Closed form of device i: T_n = temps[i] + modeSum[i] *
     *  expm1(j logDecaySum) + modeDiff[i] * expm1(j logDecayDiff), with
     *  j = n - anchorTick[i], the tick of its node's last anchor. */
    std::vector<double> modeSum;
    std::vector<double> modeDiff;
    /** reanchor()'s targets, kept to size. */
    std::vector<double> goals;
    std::vector<std::int64_t> anchorTick;
    /** Anchor-relative tick past which expm1 saturates at -1 in both
     *  modes, so temperatureAt() stops changing. */
    std::int64_t settleTicks;
    std::int64_t tickCount = 0;
    MarkedSet stale;
    /** step()'s output buffer, swapped with temps every step: every
     *  device reads its package peer's pre-step temperature, and the
     *  step allocates nothing. */
    std::vector<double> nextTemps;
    std::vector<double> inletOffsets;    //!< injected inlet delta (degC)
    std::vector<double> faultRScale;     //!< injected resistance scale
};

} // namespace hw
} // namespace charllm

#endif // CHARLLM_HW_THERMAL_MODEL_HH
