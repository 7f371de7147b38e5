// The four workloads. Each loads a different layer of the simulator;
// README.md gives the reason for each and the layer table.

#include "common/logging.hh"
#include "core/catalog.hh"
#include "core/cluster.hh"
#include "hostbench.hh"

namespace hostbench {

namespace {

/** Paper-sweep measurement settings: 1 warmup + 1 measured iteration. */
core::ExperimentConfig
sweepConfig(const core::ClusterSpec& cluster,
            const model::TransformerConfig& m,
            const parallel::ParallelConfig& par)
{
    core::ExperimentConfig cfg;
    cfg.cluster = cluster;
    cfg.model = m;
    cfg.par = par;
    cfg.warmupIterations = 1;
    cfg.measuredIterations = 1;
    return cfg;
}

/** Figure 22's mechanistic config: GPT3-175B TP8-PP4 with activation
 *  recompute and 4 microbatches per replica, logical world 32 * dp. */
core::ExperimentConfig
datacenterConfig(int dp)
{
    int world = 8 * 4 * dp;
    auto cfg = sweepConfig(core::h200Cluster(world / 8),
                           model::gpt3_175b(),
                           parallel::ParallelConfig::forWorld(world, 8, 4));
    cfg.train.actRecompute = true;
    cfg.train.globalBatchSize = 4 * dp;
    return cfg;
}

/** The Small-3B model of the resilience ablation. */
model::TransformerConfig
smallModel()
{
    model::TransformerConfig c;
    c.name = "Small-3B";
    c.numLayers = 16;
    c.hiddenSize = 2560;
    c.numHeads = 20;
    c.numQueryGroups = 20;
    c.ffnHiddenSize = 4 * 2560;
    c.vocabSize = 32000;
    c.seqLength = 1024;
    return c;
}

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "fsdp_thermal", "moe_scaleout", "datacenter_scale",
        "observed_recovery"};
    return names;
}

Workload
makeWorkload(const std::string& name, std::uint64_t failure_seed)
{
    Workload w;
    w.name = name;
    if (name == "fsdp_thermal") {
        // Figure 2's GPT3-175B TP8-FSDP4 row on 32xH200: governor
        // ticks and per-GPU stats dominate, the flow solver idles.
        w.configs.push_back(sweepConfig(
            core::h200Cluster(), model::gpt3_175b(),
            parallel::ParallelConfig::forWorld(32, 8, 1, 1, true)));
    } else if (name == "moe_scaleout") {
        // Figure 2's Mixtral-8x7B EP8-TP2-PP4-DP8 row on 64xH100:
        // all-to-all traffic keeps the water-fill solver busy.
        w.configs.push_back(sweepConfig(
            core::h100Cluster(), model::mixtral_8x7b(),
            parallel::ParallelConfig::forWorld(64, 2, 4, 8)));
    } else if (name == "datacenter_scale") {
        // The analytical backend at logical world 16384, then collapsed
        // DES at 16384 and 65536: O(logical world) aggregation and
        // symmetry folding, almost no ticks or flows.
        auto analytical = datacenterConfig(512);
        analytical.backend = sim::BackendKind::Analytical;
        w.configs.push_back(analytical);
        for (int dp : {512, 2048}) {
            auto des = datacenterConfig(dp);
            des.symmetryCollapse = true;
            w.configs.push_back(des);
        }
    } else if (name == "observed_recovery") {
        // bench_ablation_resilience's Small-3B TP2-PP2-DP4 config at
        // its middle MTBF with Young/Daly checkpoints, plus every
        // observer: sampler, kernel trace, critical path, reports.
        w.seeded = true;
        w.writesReports = true;
        w.failureSeed = failure_seed;
        auto cfg = sweepConfig(core::h100Cluster(2), smallModel(),
                               parallel::ParallelConfig::forWorld(16, 2, 2));
        cfg.train.globalBatchSize = 16;
        cfg.measuredIterations = 60;
        cfg.enableSampler = true;
        cfg.samplePeriodSec = 0.02;
        cfg.enableTrace = true;
        cfg.enableCriticalPath = true;
        cfg.resilience.enabled = true;
        cfg.resilience.seed = w.failureSeed;
        cfg.resilience.horizonSec = 40000.0;
        cfg.resilience.mtbf.gpuMtbfSec = 120.0;
        cfg.resilience.mtbf.linkMtbfSec = 240.0;
        cfg.resilience.mtbf.nodeMtbfSec = 0.0;
        cfg.resilience.checkpoint.intervalSec = 0.0; // Young/Daly
        cfg.resilience.recovery.spares.capacity = 1 << 20;
        w.configs.push_back(cfg);
    } else {
        CHARLLM_PANIC("unknown workload '", name, "'");
    }
    return w;
}

} // namespace hostbench
