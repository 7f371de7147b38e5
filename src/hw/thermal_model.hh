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
 */

#ifndef CHARLLM_HW_THERMAL_MODEL_HH
#define CHARLLM_HW_THERMAL_MODEL_HH

#include <vector>

#include "common/quantity.hh"
#include "hw/chassis.hh"

namespace charllm {
namespace hw {

/**
 * Thermal state integrator. The model owns only temperatures; power is
 * supplied each step by the caller (the Platform).
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

    /** Current junction temperature of device @p i. */
    Celsius temperature(int i) const { return Celsius(temps[i]); }

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

    /** Jump every device to its steady state for the given powers. */
    void warmStart(const std::vector<Watts>& powers);

    /**
     * Fault injection: add @p delta to device @p i's inlet temperature
     * (models a machine-room hot spot / blocked cold aisle). Pass a
     * zero delta to clear.
     */
    void setInletOffset(int i, CelsiusDelta delta);
    CelsiusDelta inletOffset(int i) const;

    /**
     * Fault injection: multiply device @p i's junction-to-inlet
     * thermal resistance by @p scale >= 1 (models a failed fan or
     * degraded airflow over one heatsink). Pass 1 to restore.
     */
    void setResistanceScale(int i, double scale);
    double resistanceScale(int i) const;

    const ChassisLayout& layout() const { return chassis; }

  private:
    ChassisLayout chassis;
    int nodes;
    double rTheta;
    std::vector<double> temps;
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
