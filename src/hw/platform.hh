/**
 * @file
 * Hardware platform: a homogeneous fleet of GPUs plus the thermal
 * model, driven by periodic governor ticks on the simulator.
 */

#ifndef CHARLLM_HW_PLATFORM_HH
#define CHARLLM_HW_PLATFORM_HH

#include <functional>
#include <memory>
#include <vector>

#include "hw/chassis.hh"
#include "hw/gpu.hh"
#include "hw/thermal_model.hh"
#include "sim/simulator.hh"

namespace charllm {
namespace hw {

/**
 * Owns the devices of one cluster and advances their physical state.
 * start() must be called once after construction to arm the periodic
 * thermal/governor tick.
 */
class Platform
{
  public:
    /** Callback fired when a device's clock changes (for re-timing). */
    using ClockListener = std::function<void(int gpu_id, ClockRel clock)>;

    Platform(sim::Simulator& sim, const GpuSpec& spec,
             const ChassisLayout& layout, int num_nodes);

    int numGpus() const { return static_cast<int>(devices.size()); }
    int gpusPerNode() const { return thermalNet.layout().gpusPerNode(); }
    int numNodes() const { return nodes; }

    Gpu& gpu(int id) { return *devices[static_cast<std::size_t>(id)]; }
    const Gpu&
    gpu(int id) const
    {
        return *devices[static_cast<std::size_t>(id)];
    }

    ThermalModel& thermal() { return thermalNet; }
    const ThermalModel& thermal() const { return thermalNet; }

    /** Node index of a device. */
    int nodeOf(int gpu_id) const { return gpu_id / gpusPerNode(); }

    /** Arm the periodic thermal/governor tick. */
    void start();

    /** Register the clock-change listener (at most one). */
    void setClockListener(ClockListener listener);

    /** Simulate a node-level power-delivery fault: cap all its GPUs. */
    void capNodePower(int node, Watts watts_per_gpu);

    /**
     * Inject (or clear, with factor 1.0) a performance derate on one
     * GPU; notifies the clock listener so in-flight work is re-timed.
     */
    void setGpuSlowdown(int gpu_id, double factor);

    /** One thermal/governor step (also used directly by tests). */
    void tick();

    /** Reset all per-GPU statistics at the current time (warmup end). */
    void resetStats();

    /** Close statistics intervals at the current time. */
    void finishStats();

    sim::Simulator& simulator() { return sim; }

  private:
    sim::Simulator& sim;
    std::vector<std::unique_ptr<Gpu>> devices;
    ThermalModel thermalNet;
    int nodes;
    /** Per-tick power snapshot, sized once so tick() never allocates. */
    std::vector<Watts> powers;
    ClockListener clockListener;
    bool started = false;
};

} // namespace hw
} // namespace charllm

#endif // CHARLLM_HW_PLATFORM_HH
