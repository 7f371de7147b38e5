#include "hw/platform.hh"

#include "common/logging.hh"
#include "hw/calibration.hh"

namespace charllm {
namespace hw {

Platform::Platform(sim::Simulator& simulator, const GpuSpec& spec,
                   const ChassisLayout& layout, int num_nodes)
    : sim(simulator),
      thermalNet(layout, num_nodes, spec.thermalResistance),
      nodes(num_nodes)
{
    int total = num_nodes * layout.gpusPerNode();
    devices.reserve(static_cast<std::size_t>(total));
    powers.resize(static_cast<std::size_t>(total));
    for (int i = 0; i < total; ++i)
        devices.push_back(std::make_unique<Gpu>(i, spec));
}

void
Platform::start()
{
    CHARLLM_ASSERT(!started, "Platform::start called twice");
    started = true;
    sim.every(sim::toTicks(calib::kGovernorPeriodSec), [this] { tick(); });
}

void
Platform::setClockListener(ClockListener listener)
{
    clockListener = std::move(listener);
}

void
Platform::capNodePower(int node, Watts watts_per_gpu)
{
    int per_node = gpusPerNode();
    for (int slot = 0; slot < per_node; ++slot)
        gpu(node * per_node + slot).setPowerCap(watts_per_gpu);
}

void
Platform::setGpuSlowdown(int gpu_id, double factor)
{
    if (gpu(gpu_id).setSlowdown(factor, sim.nowSeconds()) &&
        clockListener) {
        clockListener(gpu_id, gpu(gpu_id).clockRel());
    }
}

void
Platform::tick()
{
    double now = sim.nowSeconds();
    for (std::size_t i = 0; i < devices.size(); ++i) {
        // Refreshing power via thermalUpdate below; read current draw.
        powers[i] = devices[i]->power();
    }
    thermalNet.step(Seconds(calib::kGovernorPeriodSec), powers);
    for (std::size_t i = 0; i < devices.size(); ++i) {
        bool changed = devices[i]->thermalUpdate(
            thermalNet.temperature(static_cast<int>(i)), now);
        if (changed && clockListener) {
            clockListener(static_cast<int>(i),
                          devices[i]->clockRel());
        }
    }
}

void
Platform::resetStats()
{
    double now = sim.nowSeconds();
    for (auto& d : devices)
        d->resetStats(now);
}

void
Platform::finishStats()
{
    double now = sim.nowSeconds();
    for (auto& d : devices)
        d->finishStats(now);
}

} // namespace hw
} // namespace charllm
