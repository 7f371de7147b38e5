/**
 * @file
 * The experiment API: run one (cluster, model, parallelism, options)
 * combination end-to-end on the simulator and collect every metric
 * the paper reports — throughput, energy efficiency, per-kernel-class
 * breakdowns, per-GPU power/thermal/clock statistics, throttle
 * ratios, traffic counters, and optional telemetry time series.
 */

#ifndef CHARLLM_CORE_EXPERIMENT_HH
#define CHARLLM_CORE_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hh"
#include "faults/fault.hh"
#include "model/transformer_config.hh"
#include "obs/metrics.hh"
#include "parallel/memory_planner.hh"
#include "parallel/parallel_config.hh"
#include "resil/recovery.hh"
#include "runtime/engine.hh"
#include "runtime/options.hh"
#include "scale/symmetry.hh"
#include "sim/backend.hh"
#include "sim/backend_kind.hh"
#include "telemetry/sampler.hh"
#include "telemetry/trace.hh"

namespace charllm {
namespace core {

/** Full experiment description. */
struct ExperimentConfig
{
    ClusterSpec cluster;
    model::TransformerConfig model;
    parallel::ParallelConfig par;
    runtime::TrainOptions train;

    int warmupIterations = 2;
    int measuredIterations = 3;

    /**
     * Fidelity backend executing this experiment (sim::Backend). Des
     * is the full event-driven reference; Analytical is the
     * closed-form estimator, which core::validate refuses for a fault
     * scenario, resilience and the sampler (DESIGN.md §9).
     */
    sim::BackendKind backend = sim::BackendKind::Des;

    /** Thermal-aware placement: logical rank -> device (empty = id). */
    std::vector<int> devicePermutation;

    /**
     * Fault injection: (node, watts-per-GPU) power caps applied
     * before training starts — models the node-level power-delivery
     * failure the paper describes (GPUs running >4x slower and
     * straggling the whole pipeline).
     */
    std::vector<std::pair<int, double>> nodePowerCaps;

    /**
     * Deterministic degradation events (stragglers, flapping links,
     * hot inlets, ECC storms, fail-stops) injected into the run. See
     * faults::scenarios for presets. Empty = healthy fleet.
     */
    faults::FaultScenario faultScenario;

    /** On GpuFailStop faults, re-map the dead device's ranks to the
     * highest-id healthy device (takes effect next iteration). */
    bool elasticRemap = false;

    /**
     * Resilience subsystem (resil::RecoveryManager): seeded Poisson
     * failures, checkpoint/rollback recovery, retry/backoff on
     * transient link faults, and goodput accounting. Mutually
     * exclusive with faultScenario (the legacy flat-restart-cost
     * path) — the recovery state machine owns fault handling.
     */
    resil::ResilienceConfig resilience;

    /**
     * Causal critical-path tracing (DES backend only; the analytical
     * backend has no event timeline to trace and ignores the flag).
     * Attaches an obs::CriticalPathRecorder to the engine and fills
     * ExperimentResult::critPath; the simulation itself stays
     * byte-identical (the recorder is passive). Composes with
     * symmetryCollapse: representatives carry DP multiplicity and the
     * report is marked folded (DESIGN.md §13).
     */
    bool enableCriticalPath = false;

    bool enableSampler = false;
    double samplePeriodSec = 0.01;
    /** Sampler retention cap per GPU (0 = unbounded); past the cap
     *  the series is decimated to bound memory on long runs. */
    std::size_t maxSamplesPerGpu =
        telemetry::Sampler::kDefaultMaxSamplesPerGpu;
    bool enableTrace = false;

    /** Reject configurations that do not fit HBM (paper Sec. 3.1). */
    bool checkMemory = true;

    /**
     * Request rank-symmetry collapse on the DES backend: provably
     * identical DP replicas fold onto one representative, making
     * memory and event count O(distinct ranks). Configs that break
     * replica symmetry fall back to full instantiation with the
     * reason recorded in ExperimentResult::symmetry (DESIGN.md §12).
     * The analytical backend folds wherever the same proof holds
     * without being asked (it has no trace or critical path to
     * lose, and the fold is exact) and ignores this flag.
     */
    bool symmetryCollapse = false;

    /**
     * Partitioned event dispatch for collapsed runs: per-node event
     * domains advanced through conservative time windows, byte-
     * identical to the serial schedule. Only consulted when collapse
     * is active.
     */
    bool partitionedDispatch = true;

    /** Paper-style label: "<model> <cluster> <parallelism>[+opts]". */
    std::string label() const;
};

/** Per-GPU measured statistics over the post-warmup window. */
struct GpuResult
{
    double avgPowerW = 0.0;
    double peakPowerW = 0.0;
    double avgTempC = 0.0;
    double peakTempC = 0.0;
    double avgClockGhz = 0.0;
    double throttleRatio = 0.0;
    double avgOccupancy = 0.0;
    double avgWarps = 0.0;
    double avgThreadblocks = 0.0;
    double energyJ = 0.0;
    double pcieBytes = 0.0;
    double scaleUpBytes = 0.0; //!< NVLink or xGMI
    hw::KernelTimeBreakdown breakdown; //!< per measured iteration
};

/** Aggregated experiment outcome. */
struct ExperimentResult
{
    std::string label;
    bool feasible = true;
    parallel::MemoryBreakdown memory;

    std::vector<double> iterationSeconds;
    double avgIterationSeconds = 0.0;
    double tokensPerIteration = 0.0;
    double tokensPerSecond = 0.0;

    double totalEnergyJ = 0.0;
    double energyPerTokenJ = 0.0;
    double tokensPerJoule = 0.0; //!< the paper's "efficiency"

    std::vector<GpuResult> gpus;
    hw::KernelTimeBreakdown meanBreakdown; //!< rank-mean per iteration

    double avgPowerW = 0.0;
    double peakPowerW = 0.0;
    double avgTempC = 0.0;
    double peakTempC = 0.0;
    double avgClockGhz = 0.0;
    double throttleRatio = 0.0;

    double measureStartSec = 0.0;
    /** Telemetry series per GPU (empty unless enableSampler). */
    std::vector<std::vector<telemetry::Sample>> series;
    /** Kernel trace (null unless enableTrace). */
    std::shared_ptr<telemetry::KernelTrace> trace;
    /** Critical-path attribution (null unless enableCriticalPath on
     *  the DES backend). */
    std::shared_ptr<obs::CriticalPathReport> critPath;
    /** Realized fault intervals (empty unless a scenario was set). */
    std::vector<faults::FaultRecord> faultLog;
    /** Every completed iteration (warmup included), for the unified
     *  trace's iteration marker track and phase windows. */
    std::vector<runtime::IterationSpan> iterationSpans;
    /** Simulator self-profiling counters for this run (event-queue
     *  pops/cancellations, flow-solver fast/full recomputes, faults). */
    obs::SimCounters counters;

    /** Whether rank-symmetry collapse was requested / applied and,
     *  if refused, why (scale::SymmetryAnalyzer). */
    scale::SymmetryDecision symmetry;

    /** Goodput classification of the whole run (valid only when
     *  resilience was enabled; conservation is asserted inside). */
    resil::GoodputReport goodput;
    bool goodputValid = false;
    /** Realized checkpoint cadence (Young/Daly-resolved when the
     *  configured intervalSec was <= 0). */
    double checkpointIntervalSec = 0.0;
    /** Failure schedule realized by the resilience subsystem. */
    std::vector<resil::FailureEvent> failureSchedule;
};

/**
 * Runs experiments. Stateless; each run constructs the fidelity
 * backend named by config.backend (sim::makeBackend) and drives its
 * lower -> execute -> results pipeline (exit 1 if validate fails).
 */
class Experiment
{
  public:
    static ExperimentResult run(const ExperimentConfig& config);

    /** HBM fit without running: the screen lower() applies. */
    static bool fits(const ExperimentConfig& config);
};

/**
 * Every problem that keeps @p config from running, one message each
 * (empty = runnable). The analytical backend has no event timeline,
 * so it refuses a fault scenario, resilience and the telemetry
 * sampler; it also leaves the kernel trace and critical path null.
 * Allocates only to report a problem or to check a
 * devicePermutation, so it is O(1) in the world size.
 */
std::vector<std::string> validate(const ExperimentConfig& config);

/** Microbatches per data-parallel replica (at least one). */
int microbatchesPerReplica(const ExperimentConfig& cfg);

/** The checkpoint cost model of @p cfg's resilience config on its
 *  cluster (shared by validate and the DES backend). */
resil::CheckpointModel checkpointModelFor(const ExperimentConfig& cfg);

/**
 * Whether @p cfg's DP replicas are provably identical
 * (scale::SymmetryAnalyzer, DESIGN.md §12); on success fills @p fold.
 * The one proof both fidelity backends fold by: the DES backend asks
 * when cfg.symmetryCollapse is set, the analytical backend always.
 */
scale::SymmetryDecision analyzeSymmetry(const ExperimentConfig& cfg,
                                        bool requested,
                                        scale::SymmetryFold* fold);

/**
 * Memory-planner options implied by an experiment config (shared by
 * the feasibility screen and both fidelity backends).
 */
parallel::MemoryOptions memoryOptionsFor(const ExperimentConfig& cfg,
                                         int microbatches);

/**
 * The front door of both fidelity backends, and their sim::Backend
 * lifecycle. lower() exits listing every validate() problem, turns
 * ZeRO-1 off for MoE models (as the paper runs them) and applies the
 * HBM screen. execute() runs a feasible config, then folds
 * result.gpus into the cluster-level fields in device order.
 */
class ExperimentBackend : public sim::Backend
{
  public:
    void lower(const ExperimentConfig& config) final;
    void execute() final;
    ExperimentResult results() final;

  protected:
    /** Build state for the valid, feasible cfg. */
    virtual void prepare() {}
    /** Run cfg: fill result.gpus in device order, plus
     *  avgIterationSeconds and tokensPerIteration (the fold reads
     *  them) and the other run-level fields. */
    virtual void run() = 0;

    ExperimentConfig cfg;
    ExperimentResult result;

  private:
    int phase = 0; //!< 0 new, 1 lowered, 2 executed
};

} // namespace core
} // namespace charllm

#endif // CHARLLM_CORE_EXPERIMENT_HH
