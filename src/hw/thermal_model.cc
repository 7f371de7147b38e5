#include "hw/thermal_model.hh"

#include <algorithm>

#include "common/logging.hh"
#include "hw/calibration.hh"

namespace charllm {
namespace hw {

ThermalModel::ThermalModel(const ChassisLayout& layout, int num_nodes,
                           double resistance)
    : chassis(layout), nodes(num_nodes),
      rTheta(resistance > 0.0 ? resistance : calib::kThermalResistance)
{
    CHARLLM_ASSERT(num_nodes > 0 && !layout.slots.empty(),
                   "invalid thermal layout");
    temps.assign(static_cast<std::size_t>(num_nodes) *
                     layout.slots.size(),
                 calib::kRoomTempC);
    nextTemps.assign(temps.size(), 0.0);
    inletOffsets.assign(temps.size(), 0.0);
    faultRScale.assign(temps.size(), 1.0);
}

void
ThermalModel::setInletOffset(int i, CelsiusDelta delta)
{
    CHARLLM_ASSERT(i >= 0 && static_cast<std::size_t>(i) <
                                 inletOffsets.size(),
                   "device id ", i, " out of range");
    inletOffsets[static_cast<std::size_t>(i)] = delta.value();
}

CelsiusDelta
ThermalModel::inletOffset(int i) const
{
    CHARLLM_ASSERT(i >= 0 && static_cast<std::size_t>(i) <
                                 inletOffsets.size(),
                   "device id ", i, " out of range");
    return CelsiusDelta(inletOffsets[static_cast<std::size_t>(i)]);
}

void
ThermalModel::setResistanceScale(int i, double scale)
{
    CHARLLM_ASSERT(i >= 0 && static_cast<std::size_t>(i) <
                                 faultRScale.size(),
                   "device id ", i, " out of range");
    CHARLLM_ASSERT(scale > 0.0, "resistance scale must be positive");
    faultRScale[static_cast<std::size_t>(i)] = scale;
}

double
ThermalModel::resistanceScale(int i) const
{
    CHARLLM_ASSERT(i >= 0 && static_cast<std::size_t>(i) <
                                 faultRScale.size(),
                   "device id ", i, " out of range");
    return faultRScale[static_cast<std::size_t>(i)];
}

Celsius
ThermalModel::inletTemperature(int i,
                               const std::vector<Watts>& powers) const
{
    int per_node = chassis.gpusPerNode();
    int node = i / per_node;
    int slot = i % per_node;
    double inlet = calib::kRoomTempC +
                   inletOffsets[static_cast<std::size_t>(i)];
    double coeff = calib::kPreheatCoeffCPerW * chassis.preheatScale;
    for (const auto& [up_slot, weight] : chassis.slots[slot].upstream) {
        int up = node * per_node + up_slot;
        inlet += coeff * weight * powers[up].value();
    }
    return Celsius(inlet);
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
        double inlet =
            inletTemperature(static_cast<int>(i), powers).value();
        double target = inlet + powers[i].value() * rTheta *
                                    chassis.slots[slot].resistanceScale *
                                    faultRScale[i];
        double dT = dt.value() / kThermalTauSec * (target - temps[i]);
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
    // Ignores package coupling (second-order for steady state since the
    // exchange term vanishes as both GCDs approach their own targets).
    int slot = i % chassis.gpusPerNode();
    return Celsius(inletTemperature(i, powers).value() +
                   powers[i].value() * rTheta *
                       chassis.slots[slot].resistanceScale *
                       faultRScale[static_cast<std::size_t>(i)]);
}

void
ThermalModel::warmStart(const std::vector<Watts>& powers)
{
    CHARLLM_ASSERT(powers.size() == temps.size(),
                   "power vector size mismatch");
    for (std::size_t i = 0; i < temps.size(); ++i)
        temps[i] = steadyState(static_cast<int>(i), powers).value();
}

} // namespace hw
} // namespace charllm
