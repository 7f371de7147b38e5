// Isolated probes for layers that are only ever called from inside the
// simulation: event dispatch, a full flow re-allocation and a thermal
// step. Each drives one component through its public API at the sizes
// the traced pass observed and reports a per-call estimate. The probes
// do not run the workload's own traffic, so their figures are not
// shares of a pass and are never summed into one.

#include <algorithm>

#include "hostbench.hh"
#include "hw/calibration.hh"
#include "hw/thermal_model.hh"
#include "net/flow_network.hh"
#include "sim/simulator.hh"

namespace hostbench {

namespace {

/** Calls @p fn until kProbeSeconds have passed (at least kMinCalls
 *  times) and returns host seconds per call. */
template <typename Fn>
double
secondsPerCall(Fn&& fn)
{
    constexpr double kProbeSeconds = 0.05;
    constexpr int kMinCalls = 64;
    double start = hostSeconds();
    double elapsed = 0.0;
    long calls = 0;
    while (calls < kMinCalls || elapsed < kProbeSeconds) {
        fn();
        ++calls;
        elapsed = hostSeconds() - start;
    }
    return elapsed / static_cast<double>(calls);
}

/**
 * Classic hold model: the queue holds @p pending events; each one, when
 * fired, schedules a successor at a pseudo-random delay, so the heap
 * stays at its size while events are dispatched.
 */
double
dispatchNsPerEvent(std::size_t pending)
{
    struct Hold
    {
        sim::EventQueue queue;
        std::uint64_t state = 0x9e3779b97f4a7c15ULL;

        void
        fire()
        {
            state = state * 6364136223846793005ULL + 1442695040888963407ULL;
            queue.schedule(1 + (state >> 33) % 1000000, [this] { fire(); });
        }
    };
    Hold hold;
    for (std::size_t i = 0; i < std::max<std::size_t>(pending, 1); ++i)
        hold.fire();
    constexpr int kBatch = 1024;
    double per_batch = secondsPerCall([&] {
        for (int i = 0; i < kBatch; ++i)
            hold.queue.runOne();
    });
    return per_batch / kBatch * 1e9;
}

/** One full max-min re-allocation over @p flows long-lived flows on the
 *  physical topology of @p cfg (a link derate forces the full pass). */
double
recomputeUs(const core::ExperimentConfig& cfg, int nodes, std::size_t flows)
{
    net::Topology::Params params = cfg.cluster.network;
    params.numNodes = nodes;
    net::Topology topology(params);
    sim::Simulator simulator;
    net::FlowNetwork network(simulator, topology);
    const int gpus = topology.numGpus();
    if (gpus < 2)
        return 0.0;
    for (std::size_t i = 0; i < std::max<std::size_t>(flows, 1); ++i) {
        int src = static_cast<int>(i % static_cast<std::size_t>(gpus));
        int hop = 1 + static_cast<int>(
                          (gpus / 2 + 3 * (i / static_cast<std::size_t>(gpus))) %
                          static_cast<std::size_t>(gpus - 1));
        network.transfer(src, (src + hop) % gpus, Bytes(1e18), [] {});
    }
    simulator.runUntil(sim::toTicks(0.01)); // every flow has joined
    bool derated = false;
    return secondsPerCall([&] {
               derated = !derated;
               network.setLinkDerate(0, derated ? 0.5 : 1.0);
           }) *
           1e6;
}

double
thermalStepUs(const core::ExperimentConfig& cfg, int nodes)
{
    hw::ThermalModel model(cfg.cluster.chassis, nodes,
                           cfg.cluster.gpu.thermalResistance);
    std::vector<Watts> powers(static_cast<std::size_t>(model.numDevices()),
                              Watts(500.0));
    return secondsPerCall([&] {
               model.step(Seconds(hw::calib::kGovernorPeriodSec), powers);
           }) *
           1e6;
}

} // namespace

ProbeResults
runProbes(const ProbeSizes& sizes)
{
    ProbeResults p;
    if (!sizes.valid)
        return p;
    p.dispatchNsPerEvent = dispatchNsPerEvent(sizes.peakPendingEvents);
    p.recomputeUs =
        recomputeUs(sizes.config, sizes.physicalNodes, sizes.peakActiveFlows);
    p.thermalStepUs = thermalStepUs(sizes.config, sizes.physicalNodes);
    return p;
}

} // namespace hostbench
