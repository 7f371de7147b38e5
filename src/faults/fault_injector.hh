/**
 * @file
 * FaultInjector: schedules deterministic degradation events into the
 * discrete-event kernel and applies them to the hardware, network, and
 * runtime layers. All randomness (flap jitter, ECC retry counts) is
 * drawn from the scenario seed at apply() time, so the realized event
 * schedule — and therefore the whole simulation — is reproducible.
 */

#ifndef CHARLLM_FAULTS_FAULT_INJECTOR_HH
#define CHARLLM_FAULTS_FAULT_INJECTOR_HH

#include <vector>

#include "faults/fault.hh"
#include "hw/platform.hh"
#include "net/flow_network.hh"
#include "parallel/rank_mapper.hh"
#include "runtime/engine.hh"
#include "sim/simulator.hh"
#include "telemetry/trace.hh"

namespace charllm {
namespace faults {

/**
 * Injects a FaultScenario into a built simulation stack. Construct
 * after Platform/FlowNetwork, attach the engine (and optionally the
 * rank mapper for elastic re-mapping), then apply() the scenario
 * before running.
 */
class FaultInjector
{
  public:
    FaultInjector(sim::Simulator& sim, hw::Platform& platform,
                  net::FlowNetwork& network);

    /** Enable runtime-layer responses (stalls, restart costs). */
    void attachEngine(runtime::TrainingEngine& engine);

    /**
     * Enable elastic re-mapping: on GpuFailStop the failed device's
     * ranks are swapped with a same-node peer (preferring the latest
     * pipeline stage, whose bubbles absorb part of the derate),
     * taking effect at the next iteration (next program build).
     */
    void attachMapper(parallel::RankMapper& mapper);

    /**
     * Expand the scenario into concrete simulator events. Call once,
     * before the simulation runs. All Rng draws happen here.
     */
    void apply(const FaultScenario& scenario);

    /**
     * Realized fault intervals, sorted by start time (deterministic
     * for a given scenario + seed). Available right after apply().
     */
    const std::vector<FaultRecord>& log() const { return records; }

    /**
     * Name of the fault currently affecting @p gpu ("" if healthy).
     * Link faults are attributed to the link's owner GPU. Wire into
     * telemetry::Sampler::setFaultAnnotator for cause attribution.
     */
    const char* activeGpuFault(int gpu) const;

    /**
     * Overlay every realized fault interval onto @p trace as fault
     * spans (link faults are attributed to the link's owner GPU, and
     * point events become open-ended spans the trace clips at its
     * horizon). Used by core::Experiment and the unified trace
     * builder so fault rows share the kernel timeline's clock.
     */
    void overlayOnTrace(telemetry::KernelTrace& trace) const;

    std::size_t numScheduled() const { return records.size(); }

  private:
    /** Mark @p gpu as affected by @p kind over [start, end). */
    void trackInterval(int gpu, FaultKind kind, double start_s,
                       double end_s);

    /**
     * Hold a fault over its window: @p set(magnitude) at the start and,
     * if the fault has a duration, @p set(@p healthy) at its end. The
     * window is tracked against device @p owner.
     */
    template <typename Set>
    void applyWindow(const FaultSpec& spec, int owner, double healthy,
                     Set set);
    void applyGpuFailStop(const FaultSpec& spec);
    void applyLinkFlap(const FaultSpec& spec, Rng& rng);
    void applyEccStall(const FaultSpec& spec, Rng& rng);

    void record(FaultKind kind, int target, double start_s,
                double end_s, double magnitude);

    sim::Simulator& sim;
    hw::Platform& plat;
    net::FlowNetwork& network;
    runtime::TrainingEngine* engine = nullptr;
    parallel::RankMapper* mapper = nullptr;

    std::vector<FaultRecord> records;

    /** Active fault markers per GPU (count per kind, toggled by the
     * scheduled start/end events). */
    struct ActiveMark
    {
        FaultKind kind;
        int count = 0;
    };
    std::vector<std::vector<ActiveMark>> activeByGpu;
    bool applied = false;
};

} // namespace faults
} // namespace charllm

#endif // CHARLLM_FAULTS_FAULT_INJECTOR_HH
