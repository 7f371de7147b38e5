/**
 * @file
 * Tests for the core experiment layer: cluster presets (Table 3),
 * configuration catalog, the Experiment API's metric accounting, the
 * memory screen, config validation, the fast-vs-reference comparison
 * and its tolerance table, and thermal-aware placement plans.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>

#include "common/rng.hh"
#include "common/strings.hh"
#include "core/catalog.hh"
#include "core/cluster.hh"
#include "core/compare.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/thermal_placement.hh"
#include "faults/scenarios.hh"

#include <sys/wait.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>

namespace {

using namespace charllm;
using namespace charllm::core;

/** Small model so experiment-level tests stay fast. */
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

// ---- clusters -----------------------------------------------------------------

TEST(Cluster, PresetsMatchTable3)
{
    auto h200 = h200Cluster();
    EXPECT_EQ(h200.numGpus(), 32);
    EXPECT_EQ(h200.numNodes, 4);
    EXPECT_NEAR(h200.gpu.memoryBytes.value(), 141e9, 1e6);

    auto h100 = h100Cluster();
    EXPECT_EQ(h100.numGpus(), 64);
    EXPECT_EQ(h100.numNodes, 8);
    EXPECT_NEAR(h100.gpu.memoryBytes.value(), 80e9, 1e6);

    auto mi250 = mi250Cluster();
    EXPECT_EQ(mi250.numGpus(), 32);
    EXPECT_TRUE(mi250.network.chiplet);
    EXPECT_TRUE(mi250.gpu.chipletGcd);

    // Identical NIC provisioning (100 Gbps IB) across clusters.
    EXPECT_DOUBLE_EQ(h200.network.nicBw.value(), 12.5e9);
    EXPECT_DOUBLE_EQ(mi250.network.nicBw.value(), 12.5e9);
}

TEST(Cluster, OneGpuPerNodeVariant)
{
    auto one = oneGpuPerNodeCluster(h200Cluster(), 4);
    EXPECT_EQ(one.numGpus(), 4);
    EXPECT_EQ(one.network.gpusPerNode, 1);
    EXPECT_EQ(one.chassis.gpusPerNode(), 1);
}

// ---- catalog -------------------------------------------------------------------

TEST(Catalog, DenseConfigsMatchPaperSet)
{
    auto configs = paperConfigs(model::gpt3_175b(), h200Cluster());
    std::vector<std::string> labels;
    for (const auto& c : configs)
        labels.push_back(c.label());
    EXPECT_NE(std::find(labels.begin(), labels.end(), "TP8-PP4"),
              labels.end());
    EXPECT_NE(std::find(labels.begin(), labels.end(), "TP2-PP16"),
              labels.end());
    EXPECT_NE(std::find(labels.begin(), labels.end(), "TP1-PP32"),
              labels.end());
    EXPECT_NE(std::find(labels.begin(), labels.end(), "TP8-FSDP4"),
              labels.end());
}

TEST(Catalog, MoeConfigsIncludeEp8Tp1)
{
    auto configs = paperConfigs(model::mixtral_8x22b(), h200Cluster());
    bool found = false;
    for (const auto& c : configs)
        found |= c.label() == "EP8-TP1-PP4-DP8";
    EXPECT_TRUE(found);
}

TEST(Catalog, MaxExpertParallelDividesBoth)
{
    EXPECT_EQ(maxExpertParallel(model::mixtral_8x22b(), 8), 8);
    EXPECT_EQ(maxExpertParallel(model::mixtral_8x22b(), 6), 2);
    EXPECT_EQ(maxExpertParallel(model::mixtral_4x7b(), 8), 4);
    EXPECT_EQ(maxExpertParallel(model::gpt3_175b(), 8), 1);
}

// ---- experiment ------------------------------------------------------------------

struct CoreFixture : ::testing::Test
{
    ExperimentConfig
    smallConfig(int tp, int pp)
    {
        ExperimentConfig cfg;
        cfg.cluster = h200Cluster(1);
        cfg.model = smallModel();
        cfg.par = parallel::ParallelConfig::forWorld(8, tp, pp);
        cfg.train.globalBatchSize = 16;
        cfg.warmupIterations = 1;
        cfg.measuredIterations = 2;
        return cfg;
    }
};

TEST_F(CoreFixture, MetricsAreConsistent)
{
    auto r = Experiment::run(smallConfig(2, 4));
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.iterationSeconds.size(), 2u);
    EXPECT_GT(r.avgIterationSeconds, 0.0);
    EXPECT_NEAR(r.tokensPerSecond,
                r.tokensPerIteration / r.avgIterationSeconds, 1e-6);
    EXPECT_NEAR(r.tokensPerJoule * r.energyPerTokenJ, 1.0, 1e-9);
    EXPECT_EQ(r.gpus.size(), 8u);
    EXPECT_GE(r.peakPowerW, r.avgPowerW);
    EXPECT_GE(r.peakTempC, r.avgTempC);
    // Energy equals the sum of per-GPU energies.
    double sum = 0.0;
    for (const auto& g : r.gpus)
        sum += g.energyJ;
    EXPECT_NEAR(sum, r.totalEnergyJ, 1e-6 * sum);
}

TEST_F(CoreFixture, LabelEncodesOptions)
{
    auto cfg = smallConfig(2, 4);
    cfg.train.actRecompute = true;
    cfg.train.ccOverlap = true;
    cfg.train.microbatchSize = 2;
    EXPECT_EQ(cfg.label(), "Small-3B H200 TP2-PP4+act+cc mb2");
}

TEST_F(CoreFixture, InfeasibleConfigRejected)
{
    auto cfg = smallConfig(1, 1);
    cfg.model = model::gpt3_175b(); // 350 GB of weights on one GPU
    cfg.par = parallel::ParallelConfig::forWorld(8, 1, 1);
    EXPECT_FALSE(Experiment::fits(cfg));
    auto r = Experiment::run(cfg);
    EXPECT_FALSE(r.feasible);
    EXPECT_TRUE(r.iterationSeconds.empty());
}

// ---- config validation -----------------------------------------------------

/** One invalid config: an edit of smallConfig(2, 2) (8 GPUs on one
 *  H200 node, dp 2, global batch 16) and the message it must get. */
struct InvalidConfigRow
{
    const char* name;
    std::function<void(ExperimentConfig&)> edit;
    const char* message;
};

resil::ResilienceConfig&
enableResilience(ExperimentConfig& c)
{
    c.resilience.enabled = true;
    return c.resilience;
}

void
enableElasticShrink(ExperimentConfig& c)
{
    enableResilience(c).recovery.dryPolicy =
        resil::DryPoolPolicy::ElasticShrink;
}

/** A one-fault scenario. */
faults::FaultScenario
oneFault(faults::FaultKind kind, int target, double start_s,
         double magnitude)
{
    faults::FaultScenario s;
    s.faults.push_back(faults::FaultSpec{kind, target, start_s, 0.0,
                                         magnitude});
    return s;
}

/** The first rows of invalidConfigRows(): the hand-written probes. */
constexpr std::size_t kProbeRows = 37;

const std::vector<InvalidConfigRow>&
invalidConfigRows()
{
    using C = ExperimentConfig&;
    static const std::vector<InvalidConfigRow> rows = {
        // The kProbeRows hand-written probes. Before validate checked
        // them, the first eight panicked (five), segfaulted (one) or
        // ran without a message (two); the other five panicked.
        {"zero measured iterations", [](C c) { c.measuredIterations = 0; },
         "measuredIterations must be >= 1"},
        {"zero sample period",
         [](C c) {
             c.enableSampler = true;
             c.samplePeriodSec = 0.0;
         },
         "samplePeriodSec must be positive"},
        {"negative sample period",
         [](C c) {
             c.enableSampler = true;
             c.samplePeriodSec = -0.01;
         },
         "samplePeriodSec must be positive"},
        {"batch not divisible by dp",
         [](C c) { c.train.globalBatchSize = 17; },
         "global batch (17) not a positive multiple of dp (2)"},
        {"short device permutation",
         [](C c) { c.devicePermutation = {0, 1, 2}; },
         "devicePermutation has 3 entries for a world of 8"},
        {"power cap past the cluster",
         [](C c) { c.nodePowerCaps = {{7, 300.0}}; },
         "nodePowerCaps names node 7 of a 1-node cluster"},
        {"negative warmup", [](C c) { c.warmupIterations = -1; },
         "warmupIterations must be >= 0"},
        {"negative power cap", [](C c) { c.nodePowerCaps = {{0, -5.0}}; },
         "must be positive (got -5)"},
        {"zero failure horizon",
         [](C c) { enableResilience(c).horizonSec = 0.0; },
         "resilience.horizonSec must be positive (got 0)"},
        {"negative spare capacity",
         [](C c) { enableResilience(c).recovery.spares.capacity = -1; },
         "recovery.spares.capacity must be >= 0 (got -1)"},
        {"zero checkpoint store bandwidth",
         [](C c) { enableResilience(c).checkpoint.storeGBps = 0.0; },
         "checkpoint.storeGBps and the PCIe and NIC bandwidths must be "
         "positive (got 0 GB/s)"},
        {"query groups not dividing heads",
         [](C c) { c.model.numQueryGroups = 3; },
         "model numQueryGroups (3) must divide numHeads (20)"},
        {"zero hidden size", [](C c) { c.model.hiddenSize = 0; },
         "seqLength must be positive (got 16, 0, 20, 1024)"},
        // Fault scenarios: the first two segfaulted, the other three
        // panicked in faults::FaultInjector.
        {"slowdown of a GPU past the cluster",
         [](C c) {
             c.faultScenario = faults::scenarios::straggler(9999, 0.5);
         },
         "fault 0 (gpu-slowdown) target 9999 is not one of the cluster's "
         "8 GPUs"},
        {"derate of a link past the topology",
         [](C c) {
             c.faultScenario =
                 oneFault(faults::FaultKind::LinkDerate, 99999, 0.0, 0.5);
         },
         "fault 0 (link-derate) target 99999 is not one of the cluster's "
         "34 links"},
        {"slowdown that speeds up",
         [](C c) {
             c.faultScenario = faults::scenarios::straggler(0, 1.5);
         },
         "fault 0 (gpu-slowdown) magnitude must be in (0, 1) (got 1.5)"},
        {"hot inlet before the run",
         [](C c) {
             c.faultScenario = faults::scenarios::hotInlet(
                 0, CelsiusDelta(10.0), -1.0);
         },
         "fault 0 (hot-inlet) startSec must be finite and >= 0 (got -1)"},
        {"fan failure that cools",
         [](C c) {
             c.faultScenario.faults = {
                 {faults::FaultKind::FanFailure, 0, 0.0, 0.0, 0.5}};
         },
         "fault 0 (fan-failure) magnitude must be a finite resistance "
         "scale > 1 (got 0.5)"},
        // NaN and infinite resilience inputs: before validate checked
        // them, the first aborted, the next two grew the failure or
        // replenish schedule without bound, and the last ran silently
        // with no failures.
        {"NaN checkpoint interval",
         [](C c) {
             enableResilience(c).checkpoint.intervalSec = std::nan("");
         },
         "checkpoint.intervalSec must not be NaN"},
        {"infinite failure horizon",
         [](C c) {
             enableResilience(c).horizonSec =
                 std::numeric_limits<double>::infinity();
             c.resilience.mtbf.gpuMtbfSec = 120.0;
         },
         "resilience.horizonSec must be finite (got inf)"},
        {"NaN spare replenish mean",
         [](C c) {
             enableResilience(c).recovery.spares.replenishMean =
                 Seconds(std::nan(""));
         },
         "recovery.spares.replenishMean must not be NaN"},
        {"NaN GPU MTBF",
         [](C c) { enableResilience(c).mtbf.gpuMtbfSec = std::nan(""); },
         "mtbf.gpuMtbfSec must not be NaN"},
        // Schedules too long to expand and checkpoint delays the event
        // clock cannot hold: before validate checked them, the first
        // three died in std::bad_alloc, the last two panicked
        // scheduling into the past.
        {"GPU MTBF of a microsecond",
         [](C c) { enableResilience(c).mtbf.gpuMtbfSec = 1e-6; },
         "mtbf.gpuMtbfSec (1e-06 s) over resilience.horizonSec (3600 s) "
         "expands to ~2.88e+10 schedule entries, over the cap of 1e+06"},
        {"spare replenish every microsecond",
         [](C c) {
             enableResilience(c).recovery.spares.replenishMean =
                 Seconds(1e-6);
         },
         "recovery.spares.replenishMean (1e-06 s) over "
         "resilience.horizonSec (3600 s) expands to ~3.6e+09 schedule "
         "entries"},
        {"failure horizon of 1e12 s",
         [](C c) {
             enableResilience(c).horizonSec = 1e12;
             c.resilience.mtbf.gpuMtbfSec = 120.0;
         },
         "mtbf.gpuMtbfSec (120 s) over resilience.horizonSec (1e+12 s) "
         "expands to ~6.66667e+10 schedule entries"},
        {"checkpoint store at 1e-300 GB/s",
         [](C c) { enableResilience(c).checkpoint.storeGBps = 1e-300; },
         "(checkpoint.storeGBps 1e-300) does not fit the event clock"},
        {"async checkpoint quiesce of 1e15 s",
         [](C c) {
             enableResilience(c).checkpoint.async = true;
             c.resilience.checkpoint.quiesceSec = 1e15;
         },
         "an async checkpoint.quiesceSec of 1e+15 s plus its"},
        // Times past the event clock: before the sampler and fault
        // problems lists bounded them with sim::fitsTick, each passed
        // validate and aborted in Simulator::every or sim::toTicks.
        {"sample period under one tick",
         [](C c) {
             c.enableSampler = true;
             c.samplePeriodSec = 1e-10;
         },
         "samplePeriodSec must be positive: one tick (1 ns) to a Tick's "
         "range (1.8e10 s) (got 1e-10)"},
        {"sample period past the event clock",
         [](C c) {
             c.enableSampler = true;
             c.samplePeriodSec = 1e11;
         },
         "samplePeriodSec must be positive: one tick (1 ns) to a Tick's "
         "range (1.8e10 s) (got 1e+11)"},
        {"slowdown starting past the event clock",
         [](C c) {
             c.faultScenario = faults::scenarios::straggler(0, 0.5, 1e11);
         },
         "fault 0 (gpu-slowdown) startSec + durationSec (1e+11 s) does not "
         "fit the event clock"},
        {"slowdown lasting past the event clock",
         [](C c) {
             c.faultScenario = faults::scenarios::straggler(0, 0.5);
             c.faultScenario.faults[0].durationSec = 1e11;
         },
         "fault 0 (gpu-slowdown) startSec + durationSec (1e+11 s) does not "
         "fit the event clock"},
        // Found probing the seconds-valued fields ConfigFuzzNeverAborts
        // draws from: the periodic faults expanded without bound (the
        // run hung); the stall, the restart and a failure past the
        // clock aborted in sim::toTicks. A negative stage summed to the
        // right layer count and aborted on a negative collective size.
        {"link flap every picosecond",
         [](C c) {
             c.faultScenario = faults::scenarios::flappingLink(
                 0, 0.25, Seconds(1e-12), Seconds(1.0));
         },
         "fault 0 (link-flap) durationSec (1 s) over periodSec (1e-12 s) "
         "expands to ~1e+12 events, over the cap of 1e+06"},
        {"ECC stall every 0.1 ns",
         [](C c) {
             c.faultScenario = faults::scenarios::eccStorm(
                 0, Seconds(0.01), Seconds(1e-10), Seconds(1.0));
         },
         "fault 0 (ecc-stall) durationSec (1 s) over periodSec (1e-10 s) "
         "expands to ~1e+10 events"},
        {"ECC stall of 1e10 s",
         [](C c) {
             c.faultScenario = faults::scenarios::eccStorm(
                 0, Seconds(1e10), Seconds(0.1), Seconds(1.0));
         },
         "fault 0 (ecc-stall) magnitude (1e+10 s) puts a 6.3e+11 s stall or "
         "restart past startSec + durationSec"},
        {"fail-stop restart of 1e11 s",
         [](C c) {
             c.faultScenario =
                 faults::scenarios::failStop(0, Seconds(1e11), 0.0);
         },
         "fault 0 (gpu-fail-stop) magnitude (1e+11 s) puts a 1e+11 s stall "
         "or restart past startSec + durationSec"},
        {"failure horizon past the event clock",
         [](C c) {
             enableResilience(c).horizonSec = 1e11;
             c.resilience.mtbf.gpuMtbfSec = 1e11;
         },
         "resilience.horizonSec (1e+11 s) does not fit the event clock "
         "(1.8e10 s)"},
        {"stage layers with a negative stage",
         [](C c) { c.train.stageLayers = {20, -4}; },
         "stageLayers must not be negative (got -4)"},
        // The rest of validate's checks.
        {"device permutation with a repeat",
         [](C c) { c.devicePermutation = {0, 1, 2, 3, 4, 5, 6, 6}; },
         "devicePermutation is not a permutation"},
        {"device permutation out of range",
         [](C c) { c.devicePermutation = {0, 1, 2, 3, 4, 5, 6, 8}; },
         "devicePermutation is not a permutation"},
        {"zero power cap", [](C c) { c.nodePowerCaps = {{0, 0.0}}; },
         "watts on node 0 must be positive"},
        {"zero tensor parallelism", [](C c) { c.par.tp = 0; },
         "parallel widths must be positive"},
        {"ep not dividing dp", [](C c) { c.par.ep = 3; },
         "ep (3) must divide dp (2)"},
        {"FSDP with pipeline stages", [](C c) { c.par.fsdp = true; },
         "FSDP configs use pp == 1"},
        {"world larger than the cluster",
         [](C c) { c.par = parallel::ParallelConfig::forWorld(16, 2, 2); },
         "parallel world (16) != cluster size (8)"},
        {"replica batch not divisible by microbatch",
         [](C c) { c.train.microbatchSize = 3; },
         "replica batch (8) not divisible by microbatch size (3)"},
        {"stage layers not covering the model",
         [](C c) { c.train.stageLayers = {8, 7}; },
         "stageLayers must give pp (2) stages summing to numLayers (16)"},
        {"stage layers for the wrong depth",
         [](C c) { c.train.stageLayers = {16}; }, "stageLayers must give"},
        {"interleaving without a pipeline",
         [](C c) {
             c.par = parallel::ParallelConfig::forWorld(8, 2, 1);
             c.train.virtualStages = 2;
         },
         "needs pp > 1"},
        {"interleaving with asymmetric stages",
         [](C c) {
             c.train.virtualStages = 2;
             c.train.stageLayers = {9, 7};
         },
         "incompatible with asymmetric stageLayers"},
        {"interleaved inference",
         [](C c) {
             c.train.virtualStages = 2;
             c.train.inference = true;
         },
         "interleaving applies to training pipelines"},
        {"interleaving that does not divide the layers",
         [](C c) { c.train.virtualStages = 3; },
         "pp * virtualStages (6) must divide numLayers (16)"},
        {"interleaving with an odd microbatch count",
         [](C c) {
             c.train.microbatchSize = 8;
             c.train.virtualStages = 2;
         },
         "microbatch count (1) divisible by pp (2)"},
        {"sampler retention cap of one",
         [](C c) {
             c.enableSampler = true;
             c.maxSamplesPerGpu = 1;
         },
         "maxSamplesPerGpu must be 0"},
        {"faults with resilience",
         [](C c) {
             c.faultScenario = faults::scenarios::straggler(0, 0.5);
             c.resilience.enabled = true;
         },
         "mutually exclusive"},
        // Fault scenario ranges past the probes.
        {"fault at an infinite time",
         [](C c) {
             c.faultScenario = faults::scenarios::straggler(
                 0, 0.5, std::numeric_limits<double>::infinity());
         },
         "startSec must be finite and >= 0 (got inf)"},
        {"fault of negative duration",
         [](C c) {
             c.faultScenario = faults::scenarios::straggler(0, 0.5);
             c.faultScenario.faults[0].durationSec = -2.0;
         },
         "fault 0 (gpu-slowdown) durationSec must be finite and >= 0 "
         "(got -2)"},
        {"fault on a negative GPU id",
         [](C c) {
             c.faultScenario = faults::scenarios::straggler(-1, 0.5);
         },
         "target -1 is not one of the cluster's 8 GPUs"},
        {"flap on the link one past the last",
         [](C c) {
             c.faultScenario = faults::scenarios::flappingLink(
                 34, 0.25, Seconds(0.1), Seconds(1.0));
         },
         "fault 0 (link-flap) target 34 is not one of the cluster's 34 "
         "links"},
        {"link derate above one",
         [](C c) {
             c.faultScenario =
                 oneFault(faults::FaultKind::LinkDerate, 0, 0.0, 1.5);
         },
         "fault 0 (link-derate) magnitude must be in (0, 1] (got 1.5)"},
        {"flap to a dead link",
         [](C c) {
             c.faultScenario = faults::scenarios::flappingLink(
                 0, 0.0, Seconds(0.1), Seconds(1.0));
         },
         "fault 0 (link-flap) magnitude must be in (0, 1] (got 0)"},
        {"flap with no period",
         [](C c) {
             c.faultScenario = faults::scenarios::flappingLink(
                 0, 0.25, Seconds(0.0), Seconds(1.0));
         },
         "fault 0 (link-flap) needs periodSec > 0 and durationSec > 0"},
        {"flap that never recovers",
         [](C c) {
             c.faultScenario = faults::scenarios::flappingLink(
                 0, 0.25, Seconds(0.1), Seconds(1.0));
             c.faultScenario.faults[0].dutyCycle = 1.0;
         },
         "fault 0 (link-flap) dutyCycle must be in (0, 1) (got 1)"},
        {"hot inlet that cools",
         [](C c) {
             c.faultScenario =
                 faults::scenarios::hotInlet(0, CelsiusDelta(-5.0));
         },
         "fault 0 (hot-inlet) magnitude must be finite and > 0 (got -5)"},
        {"fail-stop that costs nothing",
         [](C c) {
             c.faultScenario =
                 oneFault(faults::FaultKind::GpuFailStop, 0, 0.0, 0.0);
         },
         "fault 0 (gpu-fail-stop) magnitude must be finite and > 0 "
         "(got 0)"},
        {"ECC stall of no time",
         [](C c) {
             c.faultScenario = faults::scenarios::eccStorm(
                 0, Seconds(0.0), Seconds(0.1), Seconds(1.0));
         },
         "fault 0 (ecc-stall) magnitude must be finite and > 0 (got 0)"},
        {"ECC storm with no window",
         [](C c) {
             c.faultScenario = faults::scenarios::eccStorm(
                 0, Seconds(0.01), Seconds(0.1), Seconds(0.0));
         },
         "fault 0 (ecc-stall) needs periodSec > 0 and durationSec > 0"},
        {"problems name the fault's index",
         [](C c) {
             c.faultScenario = faults::scenarios::straggler(0, 0.5);
             c.faultScenario.faults.push_back(
                 c.faultScenario.faults.front());
             c.faultScenario.faults[1].target = 8;
         },
         "fault 1 (gpu-slowdown) target 8 is not one of"},
        // Resilience and model ranges past the probes.
        {"PDU domain of no nodes",
         [](C c) {
             enableResilience(c).mtbf.pduMtbfSec = 600.0;
             c.resilience.mtbf.nodesPerPdu = 0;
         },
         "mtbf failure domains need >= 1 node"},
        {"checkpointing over a dead NIC",
         [](C c) {
             enableResilience(c);
             c.cluster.network.nicBw = BytesPerSec(0.0);
         },
         "the PCIe and NIC bandwidths must be positive"},
        {"NaN link MTBF",
         [](C c) { enableResilience(c).mtbf.linkMtbfSec = std::nan(""); },
         "mtbf.linkMtbfSec must not be NaN"},
        {"NaN node MTBF",
         [](C c) { enableResilience(c).mtbf.nodeMtbfSec = std::nan(""); },
         "mtbf.nodeMtbfSec must not be NaN"},
        {"NaN switch MTBF",
         [](C c) { enableResilience(c).mtbf.switchMtbfSec = std::nan(""); },
         "mtbf.switchMtbfSec must not be NaN"},
        {"NaN PDU MTBF",
         [](C c) { enableResilience(c).mtbf.pduMtbfSec = std::nan(""); },
         "mtbf.pduMtbfSec must not be NaN"},
        {"NaN checkpoint quiesce",
         [](C c) {
             enableResilience(c).checkpoint.quiesceSec = std::nan("");
         },
         "checkpoint.quiesceSec must be finite and >= 0 (got nan)"},
        {"negative checkpoint quiesce",
         [](C c) { enableResilience(c).checkpoint.quiesceSec = -1.0; },
         "checkpoint.quiesceSec must be finite and >= 0 (got -1)"},
        {"MoE topK past the experts",
         [](C c) {
             c.model.numExperts = 4;
             c.model.topK = 5;
         },
         "MoE topK (5) must be in 1..numExperts (4)"},
        // Elastic-shrink preconditions.
        {"elastic shrink with expert parallelism",
         [](C c) {
             enableElasticShrink(c);
             c.par.ep = 2;
         },
         "elastic DP shrink requires ep == 1"},
        {"elastic shrink on one replica",
         [](C c) {
             enableElasticShrink(c);
             c.par = parallel::ParallelConfig::forWorld(8, 2, 4);
         },
         "elastic DP shrink requires dp >= 2"},
        {"elastic rebalance with interleaving",
         [](C c) {
             enableElasticShrink(c);
             c.resilience.recovery.elastic.rebalance = true;
             c.train.virtualStages = 2;
         },
         "elastic batch rebalance is not supported"},
        // The analytical backend's refusals.
        {"analytical fault scenario",
         [](C c) {
             c.backend = sim::BackendKind::Analytical;
             c.faultScenario = faults::scenarios::straggler(0, 0.5);
         },
         "a fault scenario needs the DES backend"},
        {"analytical resilience",
         [](C c) {
             c.backend = sim::BackendKind::Analytical;
             c.resilience.enabled = true;
         },
         "resilience needs the DES backend"},
        {"analytical sampler",
         [](C c) {
             c.backend = sim::BackendKind::Analytical;
             c.enableSampler = true;
         },
         "the telemetry sampler needs the DES backend"},
    };
    return rows;
}

TEST_F(CoreFixture, ValidateNamesEveryInvalidConfig)
{
    for (const InvalidConfigRow& row : invalidConfigRows()) {
        SCOPED_TRACE(row.name);
        ExperimentConfig cfg = smallConfig(2, 2);
        row.edit(cfg);
        std::string problems;
        for (const std::string& p : validate(cfg))
            problems += p + "\n";
        EXPECT_NE(problems.find(row.message), std::string::npos)
            << problems;
    }
}

TEST_F(CoreFixture, ValidateAcceptsValidConfigs)
{
    for (auto backend :
         {sim::BackendKind::Des, sim::BackendKind::Analytical}) {
        for (auto [tp, pp] : {std::pair{1, 1}, {2, 4}, {8, 1}, {1, 8}}) {
            ExperimentConfig cfg = smallConfig(tp, pp);
            cfg.backend = backend;
            EXPECT_TRUE(validate(cfg).empty()) << cfg.label();
        }
    }
    ExperimentConfig cfg = smallConfig(2, 2);
    // Every preset fault scenario, at the edges of the cluster.
    net::Topology topo(cfg.cluster.network);
    namespace fs = faults::scenarios;
    for (const faults::FaultScenario& scenario :
         {fs::straggler(7, 0.5), fs::failStop(0, Seconds(2.0), 0.0),
          fs::hotInlet(7, CelsiusDelta(14.0)),
          faults::FaultScenario{
              .name = "fan-failure",
              .faults = {{faults::FaultKind::FanFailure, 0, 0.0, 0.0, 1.8}}},
          fs::flappingLink(net::Topology::linkCount(topo.params()) - 1,
                           0.25, Seconds(0.1), Seconds(1.0)),
          fs::eccStorm(0, Seconds(0.01), Seconds(0.1), Seconds(1.0)),
          fs::degradedPod(topo, Seconds(2.0))}) {
        cfg.faultScenario = scenario;
        EXPECT_TRUE(validate(cfg).empty()) << scenario.name;
    }
    cfg.faultScenario = {};
    cfg.devicePermutation = {7, 6, 5, 4, 3, 2, 1, 0};
    cfg.nodePowerCaps = {{0, 300.0}};
    cfg.train.virtualStages = 2;
    enableElasticShrink(cfg);
    EXPECT_TRUE(validate(cfg).empty());
    cfg.train.virtualStages = 1;
    cfg.train.stageLayers = {9, 7};
    EXPECT_TRUE(validate(cfg).empty());
    // A disabled resilience config is not range-checked.
    cfg.resilience.enabled = false;
    cfg.resilience.horizonSec = 0.0;
    cfg.resilience.recovery.spares.capacity = -1;
    EXPECT_TRUE(validate(cfg).empty());
}

TEST_F(CoreFixture, RunExitsOnEveryProbeWithItsMessage)
{
    // Exit code 1 with the message, never an abort or a signal.
    for (std::size_t i = 0; i < kProbeRows; ++i) {
        const InvalidConfigRow& row = invalidConfigRows()[i];
        SCOPED_TRACE(row.name);
        ExperimentConfig cfg = smallConfig(2, 2);
        row.edit(cfg);
        std::string pattern = "cannot run: .*";
        for (const char* c = row.message; *c != '\0'; ++c) {
            if (std::strchr("()[]{}.*+?^$|\\", *c) != nullptr)
                pattern += '\\';
            pattern += *c;
        }
        EXPECT_EXIT(Experiment::run(cfg), ::testing::ExitedWithCode(1),
                    pattern);
    }
}

TEST_F(CoreFixture, RunExitsWithEveryProblemListed)
{
    ExperimentConfig cfg = smallConfig(2, 2);
    cfg.measuredIterations = 0;
    cfg.nodePowerCaps = {{7, 300.0}};
    EXPECT_EXIT(Experiment::run(cfg), ::testing::ExitedWithCode(1),
                "fatal: config 'Small-3B H200 TP2-PP2-DP2' cannot run: "
                "measuredIterations must be >= 1 \\(got 0\\); "
                "nodePowerCaps names node 7 of a 1-node cluster");
}

TEST_F(CoreFixture, RunExitsWhenTheHorizonIsShorterThanTheRun)
{
    // Only the finished run knows its length: a message, not an abort.
    ExperimentConfig cfg = smallConfig(2, 2);
    enableResilience(cfg).horizonSec = 1e-12;
    ASSERT_TRUE(validate(cfg).empty());
    EXPECT_EXIT(Experiment::run(cfg), ::testing::ExitedWithCode(1),
                "fatal: resilience.horizonSec \\(1e-12 s\\) is shorter "
                "than the run");
}

// ---- seeded config fuzzer --------------------------------------------------

/** The first fault of @p c; a straggler on GPU 0 if it has none. */
faults::FaultSpec&
firstFault(ExperimentConfig& c)
{
    if (c.faultScenario.empty())
        c.faultScenario = faults::scenarios::straggler(0, 0.5);
    return c.faultScenario.faults.front();
}

/** A seconds-valued config field; setting it turns on what owns it. */
struct SecondsField
{
    const char* name;
    void (*set)(ExperimentConfig&, double);
};

const SecondsField kSecondsFields[] = {
    {"samplePeriodSec",
     [](ExperimentConfig& c, double s) {
         c.enableSampler = true;
         c.samplePeriodSec = s;
     }},
    {"fault startSec",
     [](ExperimentConfig& c, double s) { firstFault(c).startSec = s; }},
    {"fault durationSec",
     [](ExperimentConfig& c, double s) { firstFault(c).durationSec = s; }},
    {"link flap periodSec",
     [](ExperimentConfig& c, double s) {
         c.faultScenario = faults::scenarios::flappingLink(
             0, 0.25, Seconds(0.1), Seconds(1.0));
         c.faultScenario.faults[0].periodSec = s;
     }},
    {"ECC storm periodSec",
     [](ExperimentConfig& c, double s) {
         c.faultScenario = faults::scenarios::eccStorm(
             0, Seconds(0.01), Seconds(0.1), Seconds(1.0));
         c.faultScenario.faults[0].periodSec = s;
     }},
    {"ECC stall magnitude",
     [](ExperimentConfig& c, double s) {
         c.faultScenario = faults::scenarios::eccStorm(
             0, Seconds(s), Seconds(0.1), Seconds(1.0));
     }},
    {"fail-stop restart magnitude",
     [](ExperimentConfig& c, double s) {
         c.faultScenario = faults::scenarios::failStop(0, Seconds(s), 0.0);
     }},
    {"resilience.horizonSec",
     [](ExperimentConfig& c, double s) { enableResilience(c).horizonSec = s; }},
    {"mtbf.gpuMtbfSec",
     [](ExperimentConfig& c, double s) {
         enableResilience(c).mtbf.gpuMtbfSec = s;
     }},
    {"mtbf.linkMtbfSec",
     [](ExperimentConfig& c, double s) {
         enableResilience(c).mtbf.linkMtbfSec = s;
     }},
    {"mtbf.nodeMtbfSec",
     [](ExperimentConfig& c, double s) {
         enableResilience(c).mtbf.nodeMtbfSec = s;
     }},
    {"mtbf.switchMtbfSec",
     [](ExperimentConfig& c, double s) {
         enableResilience(c).mtbf.switchMtbfSec = s;
     }},
    {"mtbf.pduMtbfSec",
     [](ExperimentConfig& c, double s) {
         enableResilience(c).mtbf.pduMtbfSec = s;
     }},
    {"checkpoint.intervalSec",
     [](ExperimentConfig& c, double s) {
         enableResilience(c).checkpoint.intervalSec = s;
     }},
    {"checkpoint.quiesceSec",
     [](ExperimentConfig& c, double s) {
         enableResilience(c).checkpoint.quiesceSec = s;
     }},
    {"async checkpoint.quiesceSec",
     [](ExperimentConfig& c, double s) {
         enableResilience(c).checkpoint.async = true;
         c.resilience.checkpoint.quiesceSec = s;
     }},
    {"recovery.spares.replenishMean",
     [](ExperimentConfig& c, double s) {
         enableResilience(c).recovery.spares.replenishMean = Seconds(s);
     }},
};

const double kExtremeSeconds[] = {0.0,
                                  1e-12,
                                  1e-10,
                                  1e10,
                                  1e11,
                                  std::numeric_limits<double>::infinity(),
                                  std::nan(""),
                                  -1.0};

TEST_F(CoreFixture, ConfigFuzzNeverAborts)
{
    // Each seed composes 1-3 edits of a one-iteration smallConfig(2, 2),
    // drawn from invalidConfigRows() and every extreme value of every
    // seconds-valued field. validate rejects the config and the run
    // exits 1 with its message, or the run completes. The one exit a
    // valid config may take is the horizon check only a finished run
    // can make.
    const std::vector<InvalidConfigRow>& rows = invalidConfigRows();
    const std::size_t values = std::size(kExtremeSeconds);
    const std::size_t choices =
        rows.size() + std::size(kSecondsFields) * values;
    auto ran = [](int status) {
        return WIFEXITED(status) &&
               (WEXITSTATUS(status) == 0 || WEXITSTATUS(status) == 1);
    };
    int valid = 0;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        Rng rng(seed);
        ExperimentConfig cfg = smallConfig(2, 2);
        cfg.measuredIterations = 1;
        std::string edits = "seed " + std::to_string(seed) + ":";
        for (std::uint64_t n = 1 + rng.below(3); n > 0; --n) {
            std::size_t pick = rng.below(choices);
            if (pick < rows.size()) {
                rows[pick].edit(cfg);
                edits += std::string(" [") + rows[pick].name + "]";
                continue;
            }
            pick -= rows.size();
            const SecondsField& field = kSecondsFields[pick / values];
            double value = kExtremeSeconds[pick % values];
            field.set(cfg, value);
            edits += std::string(" [") + field.name + " = " +
                     formatDouble(value) + "]";
        }
        SCOPED_TRACE(edits);
        if (validate(cfg).empty()) {
            ++valid;
            EXPECT_EXIT(
                {
                    Experiment::run(cfg);
                    std::exit(0);
                },
                ran, "^$|resilience.horizonSec .* is shorter than the run");
        } else {
            EXPECT_EXIT(Experiment::run(cfg), ::testing::ExitedWithCode(1),
                        "cannot run: ");
        }
    }
    // Both halves are exercised.
    EXPECT_GT(valid, 8);
    EXPECT_LT(valid, 56);
}

// ---- fast-vs-reference comparison ------------------------------------------

const std::vector<std::string> kNoBreaches;

/** The @p k-th double inside the object at @p p, one ulp up. */
void
bumpDouble(void* p, std::size_t k = 0)
{
    double v;
    char* at = static_cast<char*>(p) + k * sizeof v;
    std::memcpy(&v, at, sizeof v);
    v = std::nextafter(v, std::numeric_limits<double>::infinity());
    std::memcpy(at, &v, sizeof v);
}

TEST_F(CoreFixture, CompareReportsEachMetricBeyondItsBound)
{
    auto cfg = smallConfig(2, 2);
    cfg.enableSampler = true;
    const auto ref = Experiment::run(cfg);
    ASSERT_TRUE(ref.feasible);
    ASSERT_FALSE(ref.series.empty() || ref.series[0].empty());
    EXPECT_NEAR(relativeError(1.1, 1.0), 0.1, 1e-12);
    EXPECT_DEATH(tolerance("no-such-row"), "no tolerance row");
    EXPECT_DOUBLE_EQ(metricError(Metric::ThrottleRatio, 0.1, 0.0), 0.1);
    // A NaN breaches wherever it falls: in a cluster metric, and under
    // a perGpu row in GPU 0's field or its first sample, ahead of the
    // finite (zero) errors of the other GPUs and samples.
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    using Edit = std::function<void(ExperimentResult&)>;
    const std::pair<Metric, Edit> kPerGpuNaNs[] = {
        {Metric::Energy, [](auto& r) { r.gpus[0].energyJ = kNaN; }},
        {Metric::AvgPower, [](auto& r) { r.gpus[0].avgPowerW = kNaN; }},
        {Metric::PeakTemp, [](auto& r) { r.gpus[0].peakTempC = kNaN; }},
        {Metric::AvgTemp, [](auto& r) { r.gpus[0].avgTempC = kNaN; }},
        {Metric::ThrottleRatio,
         [](auto& r) { r.gpus[0].throttleRatio = kNaN; }},
        {Metric::AvgClock, [](auto& r) { r.gpus[0].avgClockGhz = kNaN; }},
        {Metric::AvgPower,
         [](auto& r) { r.series[0][0].powerWatts = Watts(kNaN); }},
        {Metric::AvgTemp,
         [](auto& r) { r.series[0][0].tempC = Celsius(kNaN); }},
        {Metric::AvgClock, [](auto& r) { r.series[0][0].clockGhz = kNaN; }},
    };
    auto expect_nan_breach = [&ref](const ToleranceRow& row, Metric m,
                                    const Edit& edit) {
        ExperimentResult fast = ref;
        edit(fast);
        auto cmp = compareResults(fast, ref, row);
        EXPECT_TRUE(std::isnan(cmp[m])) << metricName(m);
        EXPECT_TRUE(std::any_of(cmp.breaches.begin(), cmp.breaches.end(),
                                [m](const std::string& b) {
                                    return b.rfind(metricName(m), 0) == 0;
                                }))
            << metricName(m);
    };
    // Each metric's field as compare.hh documents it. The test spells
    // the mapping itself, so a wrong entry in compare.cc's table shows
    // up as a breach under another metric.
    using R = ExperimentResult;
    constexpr double R::*kFields[kNumMetrics] = {
        &R::avgIterationSeconds, &R::tokensPerSecond, &R::totalEnergyJ,
        &R::avgPowerW,           &R::peakTempC,       &R::avgTempC,
        &R::throttleRatio,       &R::avgClockGhz};
    for (const ToleranceRow& row : toleranceTable()) {
        SCOPED_TRACE(row.name);
        EXPECT_EQ(compareResults(ref, ref, row).breaches, kNoBreaches);
        for (std::size_t i = 0; i < kNumMetrics; ++i) {
            auto m = static_cast<Metric>(i);
            if (std::isinf(row[m]))
                continue;
            // The throttle ratio's error is absolute, the others'
            // relative.
            double R::*field = kFields[i];
            double unit = m == Metric::ThrottleRatio ? 1.0 : ref.*field;
            ExperimentResult within = ref;
            within.*field += 0.5 * row[m] * unit;
            EXPECT_EQ(compareResults(within, ref, row).breaches, kNoBreaches);
            ExperimentResult beyond = ref;
            beyond.*field += 1.5 * row[m] * unit;
            auto cmp = compareResults(beyond, ref, row);
            EXPECT_NEAR(cmp[m], 1.5 * row[m], std::min(1e-9, 1e-6 * row[m]));
            ASSERT_EQ(cmp.breaches.size(), 1u) << metricName(m);
            EXPECT_EQ(cmp.breaches[0].rfind(metricName(m), 0), 0u)
                << cmp.breaches[0];
            expect_nan_breach(row, m, [field](auto& r) { r.*field = kNaN; });
        }
        for (const auto& [m, edit] : kPerGpuNaNs) {
            if (row.perGpu)
                expect_nan_breach(row, m, edit);
        }
    }
}

TEST_F(CoreFixture, CompareBitwiseCatchesOneUlpAnywhere)
{
    auto cfg = smallConfig(2, 2);
    cfg.enableSampler = true;
    const auto ref = Experiment::run(cfg);
    ASSERT_EQ(ref.series.size(), 8u);
    // One edit of a copy of ref is exactly one breach, naming @p field.
    using Edit = std::function<void(ExperimentResult&)>;
    auto expect_breach = [&ref](const std::string& field, const Edit& edit) {
        ExperimentResult fast = ref;
        edit(fast);
        auto cmp = compareResults(fast, ref, tolerance("bitwise"));
        ASSERT_EQ(cmp.breaches.size(), 1u) << field;
        EXPECT_EQ(cmp.breaches[0].rfind(field, 0), 0u) << cmp.breaches[0];
    };
    // Every double of the first and last GPU's result, and every number
    // and the fault tag of their first and last telemetry sample.
    for (std::size_t g : {0, 7}) {
        for (std::size_t k = 0; k < sizeof(GpuResult) / sizeof(double); ++k)
            expect_breach(strprintf("gpus[%zu].", g),
                          [&](auto& r) { bumpDouble(&r.gpus[g], k); });
        std::size_t s = g == 0 ? 0 : ref.series[g].size() - 1;
        std::string where = strprintf("series[%zu][%zu].", g, s);
        for (std::size_t k = 0; k * sizeof(double) <
                                offsetof(telemetry::Sample, fault);
             ++k)
            expect_breach(where,
                          [&](auto& r) { bumpDouble(&r.series[g][s], k); });
        expect_breach(where + "fault",
                      [&](auto& r) { r.series[g][s].fault = "straggler"; });
    }
    // The run-level outputs.
    expect_breach("label", [](auto& r) { r.label += "+"; });
    expect_breach("memory.activations",
                  [](auto& r) { bumpDouble(&r.memory.activations); });
    expect_breach("iterationSeconds[1]",
                  [](auto& r) { bumpDouble(&r.iterationSeconds[1]); });
    expect_breach("iterationSeconds: 1 entries",
                  [](auto& r) { r.iterationSeconds.pop_back(); });
    expect_breach("avgIterationSeconds",
                  [](auto& r) { bumpDouble(&r.avgIterationSeconds); });
    expect_breach("measureStartSec",
                  [](auto& r) { bumpDouble(&r.measureStartSec); });
    expect_breach("meanBreakdown[",
                  [](auto& r) { bumpDouble(&r.meanBreakdown); });
    expect_breach("gpus: 7 entries", [](auto& r) { r.gpus.pop_back(); });
}

TEST_F(CoreFixture, CompareBreachesOnFeasibilityUnderEveryRow)
{
    auto feasible = Experiment::run(smallConfig(2, 2));
    ExperimentResult infeasible = feasible;
    infeasible.feasible = false;
    for (const ToleranceRow& row : toleranceTable()) {
        for (auto [fast, ref] : {std::pair{&feasible, &infeasible},
                                 {&infeasible, &feasible}}) {
            auto cmp = compareResults(*fast, *ref, row);
            ASSERT_EQ(cmp.breaches.size(), 1u) << row.name;
            EXPECT_EQ(cmp.breaches[0].rfind("feasibility", 0), 0u)
                << row.name;
        }
    }
}

TEST_F(CoreFixture, SamplerSeriesCollected)
{
    auto cfg = smallConfig(2, 4);
    cfg.enableSampler = true;
    cfg.samplePeriodSec = 0.005;
    auto r = Experiment::run(cfg);
    ASSERT_TRUE(r.feasible);
    ASSERT_EQ(r.series.size(), 8u);
    EXPECT_GT(r.series[0].size(), 10u);
    // Samples carry plausible physics.
    for (const auto& s : r.series[0]) {
        EXPECT_GT(s.powerWatts.value(), 50.0);
        EXPECT_GE(s.tempC.value(), 20.0);
        EXPECT_GT(s.clockGhz, 0.5);
    }
}

TEST_F(CoreFixture, TraceCollectedWhenEnabled)
{
    auto cfg = smallConfig(2, 4);
    cfg.enableTrace = true;
    auto r = Experiment::run(cfg);
    ASSERT_TRUE(r.feasible);
    ASSERT_NE(r.trace, nullptr);
    EXPECT_GT(r.trace->size(), 100u);
    // Breakdown from trace after warmup matches engine accounting to
    // first order (same classes populated).
    auto b = r.trace->breakdown(0, r.measureStartSec);
    EXPECT_GT(b.computeTotal(), 0.0);
}

TEST_F(CoreFixture, BreakdownPerIterationScaling)
{
    // Doubling measured iterations must not change the per-iteration
    // breakdown (it is normalized).
    auto cfg = smallConfig(2, 4);
    auto r1 = Experiment::run(cfg);
    cfg.measuredIterations = 4;
    auto r2 = Experiment::run(cfg);
    EXPECT_NEAR(r1.meanBreakdown.total(), r2.meanBreakdown.total(),
                r1.meanBreakdown.total() * 0.1);
}

TEST_F(CoreFixture, RecomputeAppearsInBreakdown)
{
    auto cfg = smallConfig(1, 4);
    cfg.train.actRecompute = true;
    auto r = Experiment::run(cfg);
    ASSERT_TRUE(r.feasible);
    EXPECT_GT(r.meanBreakdown[hw::KernelClass::Recompute], 0.0);
}

TEST_F(CoreFixture, DeterministicResults)
{
    auto a = Experiment::run(smallConfig(2, 4));
    auto b = Experiment::run(smallConfig(2, 4));
    EXPECT_EQ(compareResults(b, a, tolerance("bitwise")).breaches,
              kNoBreaches);
}

TEST_F(CoreFixture, RearGpusRunHotter)
{
    // Sustained uniform load long enough for the thermal RC network
    // (tau = 6 s) to develop the front/rear differential.
    auto cfg = smallConfig(8, 1);
    cfg.train.globalBatchSize = 512;
    cfg.warmupIterations = 2;
    auto r = Experiment::run(cfg);
    ASSERT_TRUE(r.feasible);
    // Odd device ids sit at the exhaust (interleaved HGX rows).
    double front = 0.0, rear = 0.0;
    for (int i = 0; i < 8; i += 2)
        front += r.gpus[static_cast<std::size_t>(i)].avgTempC;
    for (int i = 1; i < 8; i += 2)
        rear += r.gpus[static_cast<std::size_t>(i)].avgTempC;
    EXPECT_GT(rear / 4.0, front / 4.0 + 3.0);
}

// ---- thermal placement --------------------------------------------------------

TEST(ThermalPlacement, PermutationIsValid)
{
    auto cluster = h200Cluster();
    auto par = parallel::ParallelConfig::forWorld(32, 4, 8);
    auto plan = coldFirstPlacement(cluster, par);
    ASSERT_EQ(plan.devicePermutation.size(), 32u);
    std::vector<int> sorted = plan.devicePermutation;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(ThermalPlacement, StagesAreThermallyUniform)
{
    auto cluster = h200Cluster();
    auto par = parallel::ParallelConfig::forWorld(32, 4, 8);
    auto plan = coldFirstPlacement(cluster, par);
    // Every stage's 4 devices share one airflow row.
    for (int pp_idx = 0; pp_idx < 8; ++pp_idx) {
        int row = -1;
        for (int tp_idx = 0; tp_idx < 4; ++tp_idx) {
            int dev = plan.devicePermutation[static_cast<std::size_t>(
                tp_idx + 4 * pp_idx)];
            int slot_row =
                cluster.chassis.slots[static_cast<std::size_t>(
                                          dev % 8)]
                    .airflowRow;
            if (row < 0)
                row = slot_row;
            EXPECT_EQ(slot_row, row) << "stage " << pp_idx;
        }
        EXPECT_EQ(plan.coldStage[static_cast<std::size_t>(pp_idx)],
                  row == 0);
    }
}

TEST(ThermalPlacement, HeadStageIsCold)
{
    auto cluster = h200Cluster();
    auto par = parallel::ParallelConfig::forWorld(32, 4, 8);
    auto plan = coldFirstPlacement(cluster, par);
    EXPECT_TRUE(plan.coldStage[7]);
}

TEST(ThermalPlacement, AsymmetricLayersPreserveTotal)
{
    auto cluster = h200Cluster();
    auto par = parallel::ParallelConfig::forWorld(32, 4, 8);
    auto plan = coldFirstPlacement(cluster, par);
    auto layers = asymmetricStageLayers(plan, 96, 1);
    EXPECT_EQ(std::accumulate(layers.begin(), layers.end(), 0), 96);
    for (int s = 0; s < 8; ++s) {
        EXPECT_EQ(layers[static_cast<std::size_t>(s)],
                  plan.coldStage[static_cast<std::size_t>(s)] ? 13
                                                              : 11);
    }
}

TEST(ThermalPlacement, CoolnessOrderPutsIntakeFirst)
{
    auto order = coolnessOrder(hw::hgxLayout());
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)] % 2, 0);
}


// ---- report exporters -----------------------------------------------------

TEST_F(CoreFixture, ReportCsvExports)
{
    auto cfg = smallConfig(2, 4);
    cfg.enableSampler = true;
    auto r = Experiment::run(cfg);
    ASSERT_TRUE(r.feasible);

    auto summary = summaryCsv(std::vector<ExperimentResult>{r, r});
    EXPECT_EQ(summary.numRows(), 2u);
    EXPECT_NE(summary.str().find("tokens_per_s"), std::string::npos);
    EXPECT_NE(summary.str().find(r.label), std::string::npos);

    auto gpus = gpuMetricsCsv(r);
    EXPECT_EQ(gpus.numRows(), 8u);

    auto breakdown = breakdownCsv(r);
    EXPECT_GE(breakdown.numRows(), 3u); // GEMM, Attention, comm...

    auto series = seriesCsv(r);
    EXPECT_GT(series.numRows(), 8u);
}

TEST_F(CoreFixture, ReportJsonWellFormed)
{
    auto r = Experiment::run(smallConfig(2, 4));
    std::string json = toJson(r);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"feasible\":true"), std::string::npos);
    EXPECT_NE(json.find("\"gpus\":8"), std::string::npos);
}

TEST_F(CoreFixture, WriteReportsCreatesFiles)
{
    auto cfg = smallConfig(2, 4);
    auto r = Experiment::run(cfg);
    auto paths = writeReports(r, "/tmp/charllm_report_test", "t24");
    // summary + gpus + breakdown + run report; no sampler -> no
    // series file, no trace -> no trace/phase files.
    ASSERT_EQ(paths.size(), 4u);
    for (const auto& p : paths) {
        std::ifstream f(p);
        EXPECT_TRUE(f.good()) << p;
    }
}

TEST_F(CoreFixture, WriteReportsStreamsTheSameTrace)
{
    // An observed run (sampler, kernel trace, critical path,
    // resilience): the streamed _trace.json is the string form byte
    // for byte, and the once-computed phase report feeds both of its
    // files unchanged.
    auto cfg = smallConfig(2, 4);
    cfg.measuredIterations = 4;
    cfg.enableSampler = true;
    cfg.samplePeriodSec = 0.02;
    cfg.enableTrace = true;
    cfg.enableCriticalPath = true;
    cfg.resilience.enabled = true;
    cfg.resilience.seed = 3;
    cfg.resilience.mtbf.gpuMtbfSec = 60.0;
    cfg.resilience.checkpoint.intervalSec = 1.5;
    auto r = Experiment::run(cfg);
    ASSERT_TRUE(r.goodputValid);
    ASSERT_TRUE(r.critPath);

    std::string dir = ::testing::TempDir() + "charllm_streamed_reports";
    auto paths = writeReports(r, dir, "obs");
    auto slurp = [&](const char* suffix) {
        std::string path = dir + "/obs" + suffix;
        EXPECT_NE(std::find(paths.begin(), paths.end(), path),
                  paths.end())
            << path;
        std::ifstream in(path, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    };
    std::string trace = slurp("_trace.json");
    std::string expected = unifiedTraceJson(r);
    EXPECT_EQ(trace.size(), expected.size());
    EXPECT_TRUE(trace == expected) << "streamed trace differs";
    EXPECT_EQ(slurp("_phases.csv"), phaseReport(r).toCsv().str());
    EXPECT_EQ(slurp("_report.json"), runReportJson(r));
    EXPECT_EQ(slurp("_series.csv"), seriesCsv(r).str());

    // A directory that cannot be created (its parent is a file): no
    // paths, no abort; the trace writer alone reports failure too.
    std::string blocker = dir + "/obs_summary.csv";
    EXPECT_TRUE(writeReports(r, blocker + "/sub", "obs").empty());
    EXPECT_FALSE(writeUnifiedTrace(r, blocker + "/trace.json"));
    std::filesystem::remove_all(dir);
}

/** FNV-1a over @p text: a report file's identity, byte for byte. */
std::uint64_t
textDigest(const std::string& text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text)
        h = (h ^ c) * 0x100000001b3ULL;
    return h;
}

struct Report : CoreFixture
{
};

TEST_F(Report, ObservedRunReportsMatchGoldenDigest)
{
    // Pins every byte an observed run (sampler, kernel trace, critical
    // path, resilience) writes: each writeReports file and the string
    // form of the unified trace. A change to number formatting or
    // event order that moves any byte fails here; one that means to
    // must re-record the digests and say why.
    auto cfg = smallConfig(2, 4);
    cfg.enableSampler = true;
    cfg.samplePeriodSec = 0.02;
    cfg.enableTrace = true;
    cfg.enableCriticalPath = true;
    cfg.resilience.enabled = true;
    cfg.resilience.seed = 3;
    cfg.resilience.mtbf.gpuMtbfSec = 60.0;
    cfg.resilience.checkpoint.intervalSec = 1.5;
    auto r = Experiment::run(cfg);
    ASSERT_TRUE(r.goodputValid);
    ASSERT_TRUE(r.critPath);

    const std::vector<std::pair<const char*, std::uint64_t>> golden = {
        {"_summary.csv", 0xbac1efeffb279a44},
        {"_gpus.csv", 0xd3624715aee083e4},
        {"_breakdown.csv", 0x0e43444ea5510953},
        {"_series.csv", 0x7d55a5336675024a},
        {"_trace.json", 0x5dbaa5a945a0b1d3},
        {"_phases.csv", 0x22ee874022839a99},
        {"_goodput.csv", 0xdd83545cf6b170be},
        {"_critpath.csv", 0x9046cc5d3d35ebba},
        {"_report.json", 0x5d91f577c03c47c3},
    };
    std::string dir = ::testing::TempDir() + "charllm_golden_reports";
    auto paths = writeReports(r, dir, "g");
    EXPECT_EQ(paths.size(), golden.size());
    for (const auto& [suffix, digest] : golden) {
        std::ifstream in(dir + "/g" + suffix, std::ios::binary);
        ASSERT_TRUE(in.good()) << suffix;
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        std::uint64_t got = textDigest(text);
        EXPECT_EQ(got, digest) << suffix << std::hex << " got 0x" << got;
    }
    std::uint64_t trace = textDigest(unifiedTraceJson(r));
    EXPECT_EQ(trace, 0x5dbaa5a945a0b1d3u)
        << std::hex << "unifiedTraceJson got 0x" << trace;
    std::filesystem::remove_all(dir);
}

} // namespace
