#include "core/experiment.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "common/stats.hh"
#include "sim/backend.hh"

namespace charllm {
namespace core {

namespace {

/** The HBM screen (paper Sec. 3.1): whether @p config fits, with its
 *  worst pipeline stage's per-GPU memory in @p worst. */
bool
screenMemory(const ExperimentConfig& config, parallel::MemoryBreakdown* worst)
{
    parallel::MemoryPlanner planner(config.model, config.par);
    auto opts = memoryOptionsFor(config, microbatchesPerReplica(config));
    *worst = planner.worstStage(opts);
    return planner.fits(config.cluster.gpu.memoryBytes, opts);
}

/** Persisted bytes per rank of @p cfg's checkpoints. */
Bytes
checkpointState(const ExperimentConfig& cfg)
{
    return resil::CheckpointModel::rankStateBytes(
        cfg.model, cfg.par,
        memoryOptionsFor(cfg, microbatchesPerReplica(cfg)));
}

/** @p cfg's checkpoint storage path. */
resil::StoragePath
storagePath(const ExperimentConfig& cfg)
{
    resil::StoragePath storage;
    storage.pcieBw = cfg.cluster.network.pcieBw;
    storage.nicBw = cfg.cluster.network.nicBw;
    storage.storeBw = BytesPerSec(cfg.resilience.checkpoint.storeGBps * 1e9);
    return storage;
}

} // namespace

std::string
ExperimentConfig::label() const
{
    std::string s = model.name + " " + cluster.name + " " + par.label();
    if (train.actRecompute)
        s += "+act";
    if (train.ccOverlap)
        s += "+cc";
    if (train.inference)
        s += " (inference)";
    if (train.microbatchSize != 1)
        s += " mb" + std::to_string(train.microbatchSize);
    return s;
}

std::vector<std::string>
validate(const ExperimentConfig& config)
{
    // Each module's ranges come from its own problems list, the one its
    // constructor asserts; only the checks that span modules are here.
    std::vector<std::string> problems;
    const parallel::ParallelConfig& par = config.par;
    const resil::ResilienceConfig& res = config.resilience;
    const int gpus = config.cluster.numGpus();
    const int nodes = config.cluster.numNodes;

    parallel::addParallelProblems(problems, par);
    // In double: exact below 2^53, and no overflow on absurd widths.
    const double world = 1.0 * par.tp * par.dp * par.pp;
    require(problems, world == gpus, "parallel world (", world,
            ") != cluster size (", gpus, ")");
    runtime::addScheduleProblems(problems, config.model, par, config.train);
    runtime::addIterationProblems(problems, config.warmupIterations,
                                  config.measuredIterations);
    if (config.enableSampler)
        telemetry::addSamplerProblems(problems, config.samplePeriodSec,
                                      config.maxSamplesPerGpu);
    if (!config.devicePermutation.empty())
        parallel::addPermutationProblems(problems, config.devicePermutation,
                                         par);
    for (const auto& [node, watts] : config.nodePowerCaps) {
        require(problems, node >= 0 && node < nodes,
                "nodePowerCaps names node ", node, " of a ", nodes,
                "-node cluster");
        require(problems, watts > 0.0 && std::isfinite(watts),
                "nodePowerCaps watts on node ", node,
                " must be positive (got ", watts, ")");
    }

    const int links = net::Topology::linkCount(config.cluster.network);
    const std::vector<faults::FaultSpec>& specs = config.faultScenario.faults;
    for (std::size_t i = 0; i < specs.size(); ++i)
        faults::addFaultProblems(problems, i, specs[i], gpus, links);

    require(problems, !res.enabled || config.faultScenario.empty(),
            "resilience and the legacy fault scenario are mutually "
            "exclusive: the recovery state machine owns fault handling");
    bool elastic = res.enabled && res.recovery.dryPolicy ==
                                      resil::DryPoolPolicy::ElasticShrink;
    require(problems, !elastic || par.ep == 1,
            "elastic DP shrink requires ep == 1: expert groups span DP "
            "replicas, so dropping a replica would orphan experts");
    if (elastic)
        parallel::addElasticProblems(problems, par.dp);
    require(problems,
            !elastic || !res.recovery.elastic.rebalance ||
                config.train.virtualStages <= 1,
            "elastic batch rebalance is not supported with interleaved "
            "pipeline schedules (virtualStages > 1)");
    if (res.enabled) {
        resil::addHorizonProblems(problems, res.horizonSec);
        resil::addFailureProblems(problems, res.mtbf, gpus, nodes,
                                  res.horizonSec);
        resil::addRecoveryProblems(problems, res.checkpoint.intervalSec,
                                   res.checkpoint.quiesceSec, res.recovery,
                                   res.horizonSec);
    }
    model::addModelProblems(problems, config.model);

    // The analytical estimator has no event timeline to model these.
    bool des = config.backend == sim::BackendKind::Des;
    require(problems, des || config.faultScenario.empty(),
            "a fault scenario needs the DES backend");
    require(problems, des || !res.enabled,
            "resilience needs the DES backend");
    require(problems, des || !config.enableSampler,
            "the telemetry sampler needs the DES backend");

    // The checkpoint cost model needs a well-formed config, so it is
    // checked once everything else is.
    if (res.enabled && problems.empty()) {
        resil::addCheckpointProblems(problems, checkpointState(config),
                                     storagePath(config),
                                     config.cluster.network.gpusPerNode,
                                     gpus);
        if (problems.empty())
            resil::addCheckpointClockProblems(
                problems, checkpointModelFor(config), res.checkpoint.async,
                res.checkpoint.quiesceSec, res.horizonSec);
    }
    return problems;
}

int
microbatchesPerReplica(const ExperimentConfig& cfg)
{
    int per_replica = cfg.train.globalBatchSize / cfg.par.dp;
    return std::max(1, per_replica / cfg.train.microbatchSize);
}

resil::CheckpointModel
checkpointModelFor(const ExperimentConfig& cfg)
{
    return resil::CheckpointModel(checkpointState(cfg), storagePath(cfg),
                                  cfg.cluster.network.gpusPerNode,
                                  cfg.cluster.numGpus());
}

scale::SymmetryDecision
analyzeSymmetry(const ExperimentConfig& cfg, bool requested,
                scale::SymmetryFold* fold)
{
    scale::SymmetryAnalyzer::Input in;
    in.tp = cfg.par.tp;
    in.dp = cfg.par.dp;
    in.pp = cfg.par.pp;
    in.ep = cfg.par.ep;
    in.gpusPerNode = cfg.cluster.network.gpusPerNode;
    in.moe = cfg.model.isMoe();
    in.faults = !cfg.faultScenario.empty();
    in.resilience = cfg.resilience.enabled;
    in.elastic = cfg.resilience.enabled &&
                 cfg.resilience.recovery.dryPolicy ==
                     resil::DryPoolPolicy::ElasticShrink;
    in.powerCaps = !cfg.nodePowerCaps.empty();
    in.devicePermutation = !cfg.devicePermutation.empty();
    in.requested = requested;
    return scale::SymmetryAnalyzer::analyze(in, fold);
}

parallel::MemoryOptions
memoryOptionsFor(const ExperimentConfig& cfg, int microbatches)
{
    parallel::MemoryOptions mo;
    mo.microbatchSize = cfg.train.microbatchSize;
    mo.microbatchesInFlight = std::min(microbatches, cfg.par.pp);
    mo.actRecompute = cfg.train.actRecompute;
    mo.zero1 = cfg.train.zero1 && !cfg.model.isMoe();
    mo.inference = cfg.train.inference;
    return mo;
}

bool
Experiment::fits(const ExperimentConfig& config)
{
    parallel::MemoryBreakdown worst;
    return screenMemory(config, &worst);
}

void
ExperimentBackend::lower(const ExperimentConfig& config)
{
    CHARLLM_ASSERT(phase == 0, name(), " backend: lower called twice");
    phase = 1;
    std::string problems;
    for (const std::string& p : validate(config))
        problems += (problems.empty() ? "" : "; ") + p;
    if (!problems.empty())
        CHARLLM_FATAL("config '", config.label(), "' cannot run: ",
                      problems);

    cfg = config;
    // The paper disables ZeRO-1 for MoE models (NeMo/Megatron limits).
    if (cfg.model.isMoe())
        cfg.train.zero1 = false;
    result.label = cfg.label();
    result.feasible = screenMemory(cfg, &result.memory) || !cfg.checkMemory;
    if (result.feasible)
        prepare();
}

void
ExperimentBackend::execute()
{
    CHARLLM_ASSERT(phase == 1, name(),
                   " backend: execute needs exactly one prior lower");
    phase = 2;
    if (!result.feasible)
        return;
    run();

    result.tokensPerSecond =
        result.tokensPerIteration / result.avgIterationSeconds;
    RunningStats power_avg, temp_avg, clock_avg, throttle_avg;
    for (const GpuResult& g : result.gpus) {
        result.totalEnergyJ += g.energyJ;
        result.meanBreakdown.merge(g.breakdown);
        result.peakPowerW = std::max(result.peakPowerW, g.peakPowerW);
        result.peakTempC = std::max(result.peakTempC, g.peakTempC);
        power_avg.add(g.avgPowerW);
        temp_avg.add(g.avgTempC);
        clock_avg.add(g.avgClockGhz);
        throttle_avg.add(g.throttleRatio);
    }
    for (double& s : result.meanBreakdown.seconds)
        s /= static_cast<double>(result.gpus.size());
    result.avgPowerW = power_avg.mean();
    result.avgTempC = temp_avg.mean();
    result.avgClockGhz = clock_avg.mean();
    result.throttleRatio = throttle_avg.mean();

    double tokens_measured = result.tokensPerIteration *
                             static_cast<double>(cfg.measuredIterations);
    result.energyPerTokenJ = result.totalEnergyJ / tokens_measured;
    result.tokensPerJoule = tokens_measured / result.totalEnergyJ;
}

ExperimentResult
ExperimentBackend::results()
{
    CHARLLM_ASSERT(phase == 2, name(), " backend: results before execute");
    return std::move(result);
}

ExperimentResult
Experiment::run(const ExperimentConfig& config)
{
    std::unique_ptr<sim::Backend> backend =
        sim::makeBackend(config.backend);
    backend->lower(config);
    backend->execute();
    return backend->results();
}

} // namespace core
} // namespace charllm
