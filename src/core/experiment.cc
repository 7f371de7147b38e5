#include "core/experiment.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <utility>

#include "common/logging.hh"
#include "common/stats.hh"
#include "sim/backend.hh"
#include "sim/event_queue.hh"

namespace charllm {
namespace core {

namespace {

/** Most entries validate lets one failure class's or the spare
 *  depot's schedule expand to (expected, over the horizon). The benches
 *  reach about 21,000 (bench_ablation_elastic's 60 s GPU MTBF on 32
 *  GPUs); a schedule entry is a few dozen bytes. */
constexpr double kMaxScheduleEntries = 1e6;

/** The HBM screen (paper Sec. 3.1): whether @p config fits, with its
 *  worst pipeline stage's per-GPU memory in @p worst. */
bool
screenMemory(const ExperimentConfig& config, parallel::MemoryBreakdown* worst)
{
    config.par.validate();
    parallel::MemoryPlanner planner(config.model, config.par);
    auto opts = memoryOptionsFor(config, microbatchesPerReplica(config));
    *worst = planner.worstStage(opts);
    return planner.fits(config.cluster.gpu.memoryBytes, opts);
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
    std::vector<std::string> problems;
    auto require = [&problems](bool ok, const auto&... why) {
        if (!ok)
            problems.push_back(detail::composeMessage(why...));
    };
    const parallel::ParallelConfig& par = config.par;
    const runtime::TrainOptions& train = config.train;
    const resil::ResilienceConfig& res = config.resilience;
    // In double: exact below 2^53, and no overflow on absurd widths.
    const double world = 1.0 * par.tp * par.dp * par.pp;

    bool widths = par.tp >= 1 && par.pp >= 1 && par.dp >= 1 && par.ep >= 1;
    require(widths, "parallel widths must be positive (tp=", par.tp,
            " pp=", par.pp, " dp=", par.dp, " ep=", par.ep, ")");
    require(!widths || par.dp % par.ep == 0, "ep (", par.ep,
            ") must divide dp (", par.dp, ")");
    require(!widths || !config.model.isMoe() ||
                config.model.numExperts % par.ep == 0,
            "ep (", par.ep, ") must divide the expert count (",
            config.model.numExperts, ")");
    require(!par.fsdp || par.pp == 1, "FSDP configs use pp == 1 (got pp=",
            par.pp, ")");
    require(world == config.cluster.numGpus(), "parallel world (", world,
            ") != cluster size (", config.cluster.numGpus(), ")");

    int batch = train.globalBatchSize;
    int mb = train.microbatchSize;
    bool dp_ok = !widths || (batch >= 1 && batch % par.dp == 0);
    require(dp_ok, "global batch (", batch,
            ") not a positive multiple of dp (", par.dp, ")");
    int replica = widths ? batch / par.dp : 0;
    bool mb_ok = widths && dp_ok && mb >= 1 && replica % mb == 0;
    require(!widths || !dp_ok || mb_ok, "replica batch (", replica,
            ") not divisible by microbatch size (", mb, ")");
    int microbatches = mb_ok ? replica / mb : 0;

    const std::vector<int>& layers = train.stageLayers;
    long long layer_sum = 0;
    for (int l : layers)
        layer_sum += l;
    require(layers.empty() || (static_cast<int>(layers.size()) == par.pp &&
                               layer_sum == config.model.numLayers),
            "stageLayers must give pp (", par.pp,
            ") stages summing to numLayers (", config.model.numLayers, ")");
    int v = train.virtualStages;
    bool interleaved = v > 1;
    require(!interleaved || par.pp > 1,
            "interleaved scheduling (virtualStages > 1) needs pp > 1");
    require(!interleaved || layers.empty(),
            "interleaving is incompatible with asymmetric stageLayers");
    require(!interleaved || !train.inference,
            "interleaving applies to training pipelines, not inference");
    require(!interleaved || !widths ||
                config.model.numLayers % (1LL * par.pp * v) == 0,
            "pp * virtualStages (", 1LL * par.pp * v,
            ") must divide numLayers (", config.model.numLayers, ")");
    require(!interleaved || !mb_ok || microbatches % par.pp == 0,
            "interleaved 1F1B needs the microbatch count (", microbatches,
            ") divisible by pp (", par.pp, ")");
    require(config.warmupIterations >= 0,
            "warmupIterations must be >= 0 (got ", config.warmupIterations,
            ")");
    require(config.measuredIterations >= 1,
            "measuredIterations must be >= 1 (got ",
            config.measuredIterations, ")");

    double period = config.samplePeriodSec;
    require(!config.enableSampler || (period > 0.0 && std::isfinite(period)),
            "samplePeriodSec must be positive (got ", period, ")");
    require(!config.enableSampler || config.maxSamplesPerGpu != 1,
            "maxSamplesPerGpu must be 0 (unbounded) or >= 2");

    // Sorting a copy checks the permutation in O(n log n); the copy is
    // empty, and allocates nothing, when no permutation is set.
    std::vector<int> ids = config.devicePermutation;
    bool sized = ids.empty() || static_cast<double>(ids.size()) == world;
    require(sized, "devicePermutation has ", ids.size(),
            " entries for a world of ", world);
    std::sort(ids.begin(), ids.end());
    require(!sized || ids.empty() ||
                (ids.front() == 0 && ids.back() == world - 1 &&
                 std::adjacent_find(ids.begin(), ids.end()) == ids.end()),
            "devicePermutation is not a permutation of devices 0..",
            world - 1);

    for (const auto& [node, watts] : config.nodePowerCaps) {
        require(node >= 0 && node < config.cluster.numNodes,
                "nodePowerCaps names node ", node, " of a ",
                config.cluster.numNodes, "-node cluster");
        require(watts > 0.0 && std::isfinite(watts),
                "nodePowerCaps watts on node ", node,
                " must be positive (got ", watts, ")");
    }

    const int links = net::Topology::linkCount(config.cluster.network);
    const std::vector<faults::FaultSpec>& specs = config.faultScenario.faults;
    for (std::size_t i = 0; i < specs.size(); ++i)
        faults::addFaultProblems(problems, i, specs[i],
                                 config.cluster.numGpus(), links);

    require(!res.enabled || config.faultScenario.empty(),
            "resilience and the legacy fault scenario are mutually "
            "exclusive: the recovery state machine owns fault handling");
    bool elastic = res.enabled && res.recovery.dryPolicy ==
                                      resil::DryPoolPolicy::ElasticShrink;
    require(!elastic || par.ep == 1,
            "elastic DP shrink requires ep == 1: expert groups span DP "
            "replicas, so dropping a replica would orphan experts");
    require(!elastic || par.dp >= 2,
            "elastic DP shrink requires dp >= 2 (got dp=", par.dp,
            "): a single replica cannot shrink");
    require(!elastic || !res.recovery.elastic.rebalance || !interleaved,
            "elastic batch rebalance is not supported with interleaved "
            "pipeline schedules (virtualStages > 1)");
    // The ranges resil::FailureGenerator, CheckpointModel and
    // RecoveryManager assert.
    if (res.enabled) {
        const resil::MtbfProfile& mtbf = res.mtbf;
        const resil::RecoveryConfig& rec = res.recovery;
        const auto& net = config.cluster.network;
        // NaN passes every "<= 0 disables" test downstream: a NaN MTBF
        // silently disables its class, a NaN interval reaches an
        // assert, and a NaN replenish mean never ends its schedule.
        const std::pair<const char*, double> reals[] = {
            {"mtbf.gpuMtbfSec", mtbf.gpuMtbfSec},
            {"mtbf.linkMtbfSec", mtbf.linkMtbfSec},
            {"mtbf.nodeMtbfSec", mtbf.nodeMtbfSec},
            {"mtbf.switchMtbfSec", mtbf.switchMtbfSec},
            {"mtbf.pduMtbfSec", mtbf.pduMtbfSec},
            {"checkpoint.intervalSec", res.checkpoint.intervalSec},
            {"recovery.spares.replenishMean",
             rec.spares.replenishMean.value()},
        };
        for (const auto& [name, value] : reals)
            require(!std::isnan(value), name, " must not be NaN");
        require(res.horizonSec > 0.0,
                "resilience.horizonSec must be positive (got ",
                res.horizonSec, ")");
        // The failure schedule is expanded up front over the horizon.
        require(!std::isinf(res.horizonSec),
                "resilience.horizonSec must be finite (got ",
                res.horizonSec, ")");
        require((mtbf.switchMtbfSec <= 0.0 || mtbf.nodesPerSwitch >= 1) &&
                    (mtbf.pduMtbfSec <= 0.0 || mtbf.nodesPerPdu >= 1),
                "mtbf failure domains need >= 1 node");
        // The failure and spare-replenish schedules are expanded before
        // the run: about horizon / mean entries per component covered.
        double horizon = res.horizonSec;
        int nodes = config.cluster.numNodes;
        auto domains = [nodes](int per_domain) {
            return per_domain >= 1 ? (nodes + per_domain - 1) / per_domain
                                   : 0;
        };
        const std::tuple<const char*, double, int> schedules[] = {
            {"mtbf.gpuMtbfSec", mtbf.gpuMtbfSec, config.cluster.numGpus()},
            {"mtbf.linkMtbfSec", mtbf.linkMtbfSec, nodes},
            {"mtbf.nodeMtbfSec", mtbf.nodeMtbfSec, nodes},
            {"mtbf.switchMtbfSec", mtbf.switchMtbfSec,
             domains(mtbf.nodesPerSwitch)},
            {"mtbf.pduMtbfSec", mtbf.pduMtbfSec, domains(mtbf.nodesPerPdu)},
            {"recovery.spares.replenishMean",
             rec.spares.replenishMean.value(), 1},
        };
        for (const auto& [name, mean, components] : schedules) {
            double entries = horizon / mean * components;
            require(!(mean > 0.0) || !std::isfinite(horizon) ||
                        entries <= kMaxScheduleEntries,
                    name, " (", mean, " s) over resilience.horizonSec (",
                    horizon, " s) expands to ~", entries,
                    " schedule entries, over the cap of ",
                    kMaxScheduleEntries);
        }
        double quiesce = res.checkpoint.quiesceSec;
        require(quiesce >= 0.0 && std::isfinite(quiesce),
                "checkpoint.quiesceSec must be finite and >= 0 (got ",
                quiesce, ")");
        require(res.checkpoint.storeGBps > 0.0 && net.pcieBw.value() > 0.0 &&
                    net.nicBw.value() > 0.0,
                "checkpoint.storeGBps and the PCIe and NIC bandwidths must "
                "be positive (got ", res.checkpoint.storeGBps, " GB/s)");
        require(rec.spares.capacity >= 0,
                "recovery.spares.capacity must be >= 0 (got ",
                rec.spares.capacity, ")");
    }

    // Model shape (model::ModelAnalytics).
    const model::TransformerConfig& m = config.model;
    require(m.numLayers > 0 && m.hiddenSize > 0 && m.numHeads > 0 &&
                m.seqLength > 0,
            "model numLayers, hiddenSize, numHeads and seqLength must be "
            "positive (got ", m.numLayers, ", ", m.hiddenSize, ", ",
            m.numHeads, ", ", m.seqLength, ")");
    require(m.numQueryGroups > 0 && m.numHeads % m.numQueryGroups == 0,
            "model numQueryGroups (", m.numQueryGroups,
            ") must divide numHeads (", m.numHeads, ")");
    require(!m.isMoe() || (m.topK > 0 && m.topK <= m.numExperts),
            "MoE topK (", m.topK, ") must be in 1..numExperts (",
            m.numExperts, ")");

    // The analytical estimator has no event timeline to model these.
    bool des = config.backend == sim::BackendKind::Des;
    require(des || config.faultScenario.empty(),
            "a fault scenario needs the DES backend");
    require(des || !res.enabled, "resilience needs the DES backend");
    require(des || !config.enableSampler,
            "the telemetry sampler needs the DES backend");

    // A checkpoint write is one event-clock delay. Its cost model needs
    // a well-formed config, so it is checked once everything else is.
    if (res.enabled && problems.empty()) {
        double write = checkpointModelFor(config).writeSeconds().value();
        double clock_limit =
            sim::toSeconds(std::numeric_limits<sim::Tick>::max());
        require(write < clock_limit, "a checkpoint write of ", write,
                " s (checkpoint.storeGBps ", res.checkpoint.storeGBps,
                ") does not fit the event clock (", clock_limit, " s)");
        // An async checkpoint commits quiesce + write after it starts,
        // and it may start as late as the horizon.
        double quiesce = res.checkpoint.quiesceSec;
        require(!res.checkpoint.async || !(write < clock_limit) ||
                    res.horizonSec + quiesce + write < clock_limit,
                "an async checkpoint.quiesceSec of ", quiesce,
                " s plus its ", write, " s write past resilience.horizonSec (",
                res.horizonSec, " s) does not fit the event clock (",
                clock_limit, " s)");
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
    Bytes state = resil::CheckpointModel::rankStateBytes(
        cfg.model, cfg.par,
        memoryOptionsFor(cfg, microbatchesPerReplica(cfg)));
    resil::StoragePath storage;
    storage.pcieBw = cfg.cluster.network.pcieBw;
    storage.nicBw = cfg.cluster.network.nicBw;
    storage.storeBw = BytesPerSec(cfg.resilience.checkpoint.storeGBps * 1e9);
    return resil::CheckpointModel(state, storage,
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
