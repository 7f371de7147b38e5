/**
 * @file
 * Tests for the pluggable fidelity backends (sim::Backend): backend
 * name parsing, DES determinism (byte-identical repeated runs),
 * analytical-vs-DES cross-validation on a small preset (both through
 * core::compareResults), the memory screen on both backends, and the
 * analytical backend's refusals, which come from core::validate
 * (test_core tables every message).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "bench_util.hh"
#include "coll/cost_model.hh"
#include "core/analytical_backend.hh"
#include "core/catalog.hh"
#include "core/cluster.hh"
#include "core/compare.hh"
#include "core/des_backend.hh"
#include "core/experiment.hh"
#include "faults/scenarios.hh"
#include "hw/calibration.hh"
#include "sim/backend.hh"
#include "sim/backend_kind.hh"

namespace {

using namespace charllm;
using namespace charllm::core;

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

ExperimentConfig
smallConfig(int tp, int pp, sim::BackendKind backend)
{
    ExperimentConfig cfg;
    cfg.cluster = h200Cluster(1);
    cfg.model = smallModel();
    cfg.par = parallel::ParallelConfig::forWorld(8, tp, pp);
    cfg.train.globalBatchSize = 16;
    cfg.warmupIterations = 1;
    cfg.measuredIterations = 2;
    cfg.backend = backend;
    return cfg;
}

/** No breach: what an EXPECT_EQ against a Comparison's list wants. */
const std::vector<std::string> kNoBreaches;

// ---- backend kind parsing ----------------------------------------------------

TEST(BackendKind, ParsesKnownNames)
{
    sim::BackendKind kind = sim::BackendKind::Analytical;
    EXPECT_TRUE(sim::parseBackendKind("des", &kind));
    EXPECT_EQ(kind, sim::BackendKind::Des);
    EXPECT_TRUE(sim::parseBackendKind("analytical", &kind));
    EXPECT_EQ(kind, sim::BackendKind::Analytical);
}

TEST(BackendKind, RejectsUnknownNames)
{
    sim::BackendKind kind = sim::BackendKind::Des;
    EXPECT_FALSE(sim::parseBackendKind("", &kind));
    EXPECT_FALSE(sim::parseBackendKind("DES", &kind));
    EXPECT_FALSE(sim::parseBackendKind("roofline", &kind));
    // A failed parse leaves the output untouched.
    EXPECT_EQ(kind, sim::BackendKind::Des);
}

TEST(BackendKind, NamesRoundTrip)
{
    EXPECT_STREQ(sim::backendKindName(sim::BackendKind::Des), "des");
    EXPECT_STREQ(sim::backendKindName(sim::BackendKind::Analytical),
                 "analytical");
    sim::BackendKind kind = sim::BackendKind::Des;
    ASSERT_TRUE(sim::parseBackendKind(
        sim::backendKindName(sim::BackendKind::Analytical), &kind));
    EXPECT_EQ(kind, sim::BackendKind::Analytical);
}

TEST(BackendKind, FactoryReportsNames)
{
    EXPECT_STREQ(sim::makeBackend(sim::BackendKind::Des)->name(),
                 "des");
    EXPECT_STREQ(
        sim::makeBackend(sim::BackendKind::Analytical)->name(),
        "analytical");
}

// ---- DES backend: the reference ----------------------------------------------

TEST(DesBackend, RepeatedRunsAreByteIdentical)
{
    auto cfg = smallConfig(2, 4, sim::BackendKind::Des);
    auto a = Experiment::run(cfg);
    auto b = Experiment::run(cfg);
    ASSERT_TRUE(a.feasible);
    // Exact double equality of every output: the DES path must be
    // deterministic.
    EXPECT_EQ(compareResults(b, a, tolerance("bitwise")).breaches,
              kNoBreaches);
}

TEST(DesBackend, LifecycleIsEnforced)
{
    DesBackend backend;
    EXPECT_DEATH(backend.results(), "before execute");
}

// ---- analytical backend ------------------------------------------------------

TEST(AnalyticalBackend, MatchesDesWithinTolerance)
{
    auto des = Experiment::run(
        smallConfig(2, 4, sim::BackendKind::Des));
    auto ana = Experiment::run(
        smallConfig(2, 4, sim::BackendKind::Analytical));
    ASSERT_TRUE(des.feasible);
    // The analytical estimator approximates transient contention; the
    // tight per-figure rows gate bench_backend_xval. Here the
    // estimate must be in the right ballpark.
    EXPECT_EQ(compareResults(ana, des, tolerance("analytical-smoke"))
                  .breaches,
              kNoBreaches);
    // No avgTempC bound here: the analytical backend reports the
    // steady-state temperature, while a short DES run never leaves the
    // thermal transient. It must still sit between ambient and a
    // plausible silicon ceiling.
    EXPECT_GT(ana.avgTempC, hw::calib::kRoomTempC);
    EXPECT_LT(ana.peakTempC, 100.0);
}

TEST(AnalyticalBackend, MetricsAreConsistentAndFinite)
{
    auto r = Experiment::run(
        smallConfig(2, 4, sim::BackendKind::Analytical));
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.iterationSeconds.size(), 2u);
    EXPECT_GT(r.avgIterationSeconds, 0.0);
    EXPECT_NEAR(r.tokensPerSecond,
                r.tokensPerIteration / r.avgIterationSeconds, 1e-6);
    EXPECT_NEAR(r.tokensPerJoule * r.energyPerTokenJ, 1.0, 1e-9);
    EXPECT_EQ(r.gpus.size(), 8u);
    EXPECT_GE(r.peakPowerW, r.avgPowerW);
    double sum = 0.0;
    for (const auto& g : r.gpus) {
        EXPECT_TRUE(std::isfinite(g.energyJ));
        EXPECT_TRUE(std::isfinite(g.avgPowerW));
        EXPECT_TRUE(std::isfinite(g.avgTempC));
        EXPECT_GT(g.avgPowerW, 0.0);
        sum += g.energyJ;
    }
    EXPECT_NEAR(sum, r.totalEnergyJ, 1e-6 * sum);
    // No event queue ran: transient-only outputs are empty.
    EXPECT_TRUE(r.series.empty());
    EXPECT_EQ(r.trace, nullptr);
    EXPECT_EQ(r.counters.eventsPopped, 0u);
}

TEST(AnalyticalBackend, IsDeterministic)
{
    auto cfg = smallConfig(4, 2, sim::BackendKind::Analytical);
    auto a = Experiment::run(cfg);
    auto b = Experiment::run(cfg);
    ASSERT_TRUE(a.feasible);
    EXPECT_EQ(compareResults(b, a, tolerance("bitwise")).breaches,
              kNoBreaches);
}

/** An analytical run with actRecompute, 1 warmup + 2 measured
 *  iterations (MoE models re-draw routing, so each gets a summary). */
ExperimentConfig
goldenConfig(const ClusterSpec& cluster, const model::TransformerConfig& m,
             const parallel::ParallelConfig& par)
{
    ExperimentConfig cfg;
    cfg.cluster = cluster;
    cfg.model = m;
    cfg.par = par;
    cfg.warmupIterations = 1;
    cfg.measuredIterations = 2;
    cfg.backend = sim::BackendKind::Analytical;
    cfg.train.actRecompute = true;
    return cfg;
}

/** FNV-1a over the bit patterns of every GPU's traffic, breakdown,
 *  power, temperature, clock, occupancy and energy, in GPU order. */
std::uint64_t
perGpuDigest(const ExperimentResult& r)
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xffU;
            h *= 1099511628211ULL;
        }
    };
    for (const GpuResult& g : r.gpus) {
        mix(g.pcieBytes);
        mix(g.scaleUpBytes);
        for (double s : g.breakdown.seconds)
            mix(s);
        mix(g.avgPowerW);
        mix(g.peakPowerW);
        mix(g.avgTempC);
        mix(g.avgClockGhz);
        mix(g.avgOccupancy);
        mix(g.energyJ);
    }
    return h;
}

TEST(AnalyticalBackend, MatchesGoldenValuesBitwise)
{
    // Values recorded from the backend that re-priced every collective
    // for every member device. Pricing each distinct collective once
    // must not move a single bit.
    struct Golden
    {
        const char* name;
        ExperimentConfig cfg;
        double avgIterationSeconds;
        double totalEnergyJ;
        std::uint64_t perGpu;
    };
    std::vector<Golden> cases;
    auto tp8 = goldenConfig(h200Cluster(16), model::gpt3_175b(),
                            parallel::ParallelConfig::forWorld(128, 8, 4));
    cases.push_back({"h200-tp8-pp4-dp4", tp8, 0x1.9138caeaea372p+4,
                     0x1.3012e742df535p+21, 0xe9b05d99437606a3ULL});
    tp8.train.topologyAwareCollectives = true;
    cases.push_back({"h200-tp8-pp4-dp4-topo", tp8, 0x1.9138caeaea372p+4,
                     0x1.3012e742df535p+21, 0xe9b05d99437606a3ULL});
    // Four DP members per node: hierarchical AllGather/ReduceScatter
    // (ZeRO-1) and overlapped gradient buckets.
    auto hier = goldenConfig(h200Cluster(4), model::gpt3_30b(),
                             parallel::ParallelConfig::forWorld(32, 2, 2));
    hier.train.topologyAwareCollectives = true;
    hier.train.zero1 = true;
    hier.train.ccOverlap = true;
    cases.push_back({"h200-tp2-pp2-dp8-hierarchical", hier,
                     0x1.3899360ff328bp+3, 0x1.41e287300aeeap+18,
                     0xe7d25e25d7dfdb13ULL});
    // A strided placement scatters every group across nodes unevenly:
    // unsorted member lists and non-uniform hierarchical fallbacks.
    for (int r = 0; r < 32; ++r)
        hier.devicePermutation.push_back(r * 7 % 32);
    cases.push_back({"h200-tp2-pp2-dp8-permuted", hier,
                     0x1.051c96511ce13p+5, 0x1.1e56f79c33c5bp+19,
                     0x5ebac6acb196cc51ULL});
    cases.push_back(
        {"h200-mixtral-ep8-pp4",
         goldenConfig(h200Cluster(4), model::mixtral_8x7b(),
                      parallel::ParallelConfig::forWorld(32, 1, 4, 8)),
         0x1.883bc4debf562p+2, 0x1.895efb6739feap+17,
         0xd7f0111ce9981729ULL});
    cases.push_back(
        {"mi250-tp4-pp8",
         goldenConfig(mi250Cluster(), model::llama3_30b(),
                      parallel::ParallelConfig::forWorld(32, 4, 8)),
         0x1.89086dc8d0e46p+6, 0x1.38f0cc70c0679p+20,
         0x4927bf41eb46abebULL});
    // Figure 8's one GPU per node: every group falls back to the flat
    // ring even with topology-aware collectives on.
    auto one = goldenConfig(oneGpuPerNodeCluster(h200Cluster(), 4),
                            model::gpt3_13b(),
                            parallel::ParallelConfig::forWorld(4, 2, 2));
    one.train.topologyAwareCollectives = true;
    cases.push_back({"one-gpu-per-node-tp2-pp2", one, 0x1.8c037f07e318p+5,
                     0x1.a56019288e36cp+17, 0x358d53dee9fb1debULL});

    for (const Golden& c : cases) {
        SCOPED_TRACE(c.name);
        auto r = Experiment::run(c.cfg);
        ASSERT_TRUE(r.feasible);
        EXPECT_EQ(r.avgIterationSeconds, c.avgIterationSeconds);
        EXPECT_EQ(r.totalEnergyJ, c.totalEnergyJ);
        EXPECT_EQ(perGpuDigest(r), c.perGpu);
    }
}

/** Appends one line per GpuResult field whose bits differ. */
void
diffGpuBits(const GpuResult& a, const GpuResult& b, std::size_t gpu,
            std::vector<std::string>& out)
{
    auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    const std::pair<const char*, std::pair<double, double>> fields[] = {
        {"avgPowerW", {a.avgPowerW, b.avgPowerW}},
        {"peakPowerW", {a.peakPowerW, b.peakPowerW}},
        {"avgTempC", {a.avgTempC, b.avgTempC}},
        {"peakTempC", {a.peakTempC, b.peakTempC}},
        {"avgClockGhz", {a.avgClockGhz, b.avgClockGhz}},
        {"throttleRatio", {a.throttleRatio, b.throttleRatio}},
        {"avgOccupancy", {a.avgOccupancy, b.avgOccupancy}},
        {"avgWarps", {a.avgWarps, b.avgWarps}},
        {"avgThreadblocks", {a.avgThreadblocks, b.avgThreadblocks}},
        {"energyJ", {a.energyJ, b.energyJ}},
        {"pcieBytes", {a.pcieBytes, b.pcieBytes}},
        {"scaleUpBytes", {a.scaleUpBytes, b.scaleUpBytes}},
    };
    for (const auto& [name, v] : fields) {
        if (bits(v.first) != bits(v.second))
            out.push_back("gpu " + std::to_string(gpu) + " " + name);
    }
    for (std::size_t k = 0; k < a.breakdown.seconds.size(); ++k) {
        if (bits(a.breakdown.seconds[k]) != bits(b.breakdown.seconds[k]))
            out.push_back("gpu " + std::to_string(gpu) + " breakdown[" +
                          std::to_string(k) + "]");
    }
}

TEST(AnalyticalBackend, FoldedMatchesUnfoldedBitwise)
{
    // Where the DP replicas are proven identical the backend prices one
    // replica and replays it. An identity devicePermutation changes no
    // placement but makes the symmetry analyzer refuse, so the same
    // config priced rank by rank is the twin.
    std::vector<std::pair<const char*, ExperimentConfig>> cases;
    auto h200 = goldenConfig(h200Cluster(16), model::gpt3_175b(),
                             parallel::ParallelConfig::forWorld(128, 8, 4));
    h200.train.actRecompute = false;
    auto add = [&cases, &h200](const char* name, auto edit) {
        ExperimentConfig cfg = h200;
        edit(cfg);
        cases.emplace_back(name, cfg);
    };
    add("h200-tp8-pp4-dp4", [](ExperimentConfig&) {});
    add("+cc", [](ExperimentConfig& c) { c.train.ccOverlap = true; });
    add("+topology-aware", [](ExperimentConfig& c) {
        c.train.topologyAwareCollectives = true;
    });
    add("+act-recompute mb2", [](ExperimentConfig& c) {
        c.train.actRecompute = true;
        c.train.microbatchSize = 2;
    });
    add("zero1 off", [](ExperimentConfig& c) { c.train.zero1 = false; });
    add("inference", [](ExperimentConfig& c) { c.train.inference = true; });
    add("v = 2", [](ExperimentConfig& c) { c.train.virtualStages = 2; });
    add("chunkP2p", [](ExperimentConfig& c) { c.train.chunkP2p = true; });
    cases.emplace_back(
        "h200-tp8-fsdp4",
        goldenConfig(h200Cluster(), model::gpt3_175b(),
                     parallel::ParallelConfig::forWorld(32, 8, 1, 1, true)));
    cases.emplace_back(
        "lora",
        goldenConfig(h200Cluster(), model::withLora(model::gpt3_30b(), 16),
                     parallel::ParallelConfig::forWorld(32, 8, 2)));
    cases.emplace_back(
        "mi250-tp8",
        goldenConfig(mi250Cluster(), model::llama3_30b(),
                     parallel::ParallelConfig::forWorld(32, 8, 2)));
    // TP spanning two nodes: ring positions decide which hops cross.
    cases.emplace_back(
        "h200-tp16-pp2-dp2",
        goldenConfig(h200Cluster(8), model::gpt3_175b(),
                     parallel::ParallelConfig::forWorld(64, 16, 2)));
    cases.emplace_back(
        "h100-tp8-pp2-dp4",
        goldenConfig(h100Cluster(), model::gpt3_30b(),
                     parallel::ParallelConfig::forWorld(64, 8, 2)));

    for (const auto& [name, folded_cfg] : cases) {
        SCOPED_TRACE(name);
        ASSERT_TRUE(analyzeSymmetry(folded_cfg, true, nullptr).collapsed);
        ExperimentConfig twin_cfg = folded_cfg;
        for (int d = 0; d < twin_cfg.cluster.numGpus(); ++d)
            twin_cfg.devicePermutation.push_back(d);
        ASSERT_FALSE(analyzeSymmetry(twin_cfg, true, nullptr).collapsed);

        auto folded = Experiment::run(folded_cfg);
        auto twin = Experiment::run(twin_cfg);
        ASSERT_TRUE(twin.feasible);
        ASSERT_TRUE(folded.feasible);
        ASSERT_EQ(folded.gpus.size(), twin.gpus.size());
        std::vector<std::string> differ;
        for (std::size_t g = 0; g < twin.gpus.size(); ++g)
            diffGpuBits(folded.gpus[g], twin.gpus[g], g, differ);
        EXPECT_EQ(differ, kNoBreaches);
        EXPECT_EQ(compareResults(folded, twin, tolerance("bitwise")).breaches,
                  kNoBreaches);
    }
}

TEST(AnalyticalBackend, AppliesMemoryScreen)
{
    auto cfg = smallConfig(1, 1, sim::BackendKind::Analytical);
    cfg.model = model::gpt3_175b(); // 350 GB of weights on one GPU
    cfg.par = parallel::ParallelConfig::forWorld(8, 1, 1);
    auto r = Experiment::run(cfg);
    EXPECT_FALSE(r.feasible);
}

TEST(AnalyticalBackend, RejectsFaultScenarios)
{
    auto cfg = smallConfig(2, 4, sim::BackendKind::Analytical);
    cfg.faultScenario = faults::scenarios::straggler(0, 0.5);
    EXPECT_EXIT(Experiment::run(cfg), ::testing::ExitedWithCode(1),
                "a fault scenario needs the DES backend");
}

TEST(AnalyticalBackend, RejectsResilience)
{
    auto cfg = smallConfig(2, 4, sim::BackendKind::Analytical);
    cfg.resilience.enabled = true;
    EXPECT_EXIT(Experiment::run(cfg), ::testing::ExitedWithCode(1),
                "resilience needs the DES backend");
}

// ---- the strict --backend= flag parser ---------------------------------------

TEST(SweepFlagsDeath, UnknownBackendExitsTwo)
{
    const char* argv[] = {"bench", "--backend=roofline"};
    EXPECT_EXIT(benchutil::sweepFlags(2, const_cast<char**>(argv)),
                testing::ExitedWithCode(2), "unknown backend");
}

TEST(SweepFlagsDeath, EmptyBackendExitsTwo)
{
    const char* argv[] = {"bench", "--backend="};
    EXPECT_EXIT(benchutil::sweepFlags(2, const_cast<char**>(argv)),
                testing::ExitedWithCode(2), "unknown backend");
}

TEST(SweepFlagsDeath, OutOfRangeThreadCountExitsTwo)
{
    // Each once narrowed silently: 2^32 + 1 to one thread, 2^31 to
    // INT_MIN (one thread per core). Parsing alone: no sweep runs.
    for (const char* arg : {"--threads=4294967297", "--threads=2147483648",
                            "-j99999999999999999999", "--threads=-1"}) {
        SCOPED_TRACE(arg);
        const char* argv[] = {"bench", arg};
        EXPECT_EXIT(benchutil::sweepFlags(2, const_cast<char**>(argv)),
                    testing::ExitedWithCode(2), "invalid thread count");
    }
}

TEST(SweepFlagsDeath, InvalidFaultScenariosExitTwo)
{
    // Each of these once crashed the run (a segfault or an abort).
    using faults::FaultKind;
    const std::pair<faults::FaultSpec, const char*> probes[] = {
        {{FaultKind::GpuSlowdown, 9999, 0.0, 0.0, 0.5},
         "target 9999 is not one of the cluster's 8 GPUs"},
        {{FaultKind::LinkDerate, 99999, 0.0, 0.0, 0.5},
         "target 99999 is not one of the cluster's 34 links"},
        {{FaultKind::GpuSlowdown, 0, 0.0, 0.0, 1.5},
         "magnitude must be in \\(0, 1\\) \\(got 1.5\\)"},
        {{FaultKind::HotInlet, 0, -1.0, 0.0, 10.0},
         "startSec must be finite and >= 0 \\(got -1\\)"},
        {{FaultKind::FanFailure, 0, 0.0, 0.0, 0.5},
         "resistance scale > 1 \\(got 0.5\\)"},
    };
    for (const auto& [spec, message] : probes) {
        SCOPED_TRACE(message);
        ExperimentConfig cfg = smallConfig(2, 4, sim::BackendKind::Des);
        cfg.faultScenario.faults = {spec};
        EXPECT_EXIT(benchutil::runSweep({cfg}, benchutil::SweepFlags{}),
                    testing::ExitedWithCode(2), message);
    }
}

TEST(SweepFlagsDeath, InvalidResilienceInputsExitTwo)
{
    // Each of these once aborted, grew a schedule until it ran out of
    // memory, panicked, or ran silently without failures.
    const std::pair<void (*)(resil::ResilienceConfig&), const char*>
        probes[] = {
            {[](resil::ResilienceConfig& r) {
                 r.checkpoint.intervalSec = std::nan("");
             },
             "checkpoint.intervalSec must not be NaN"},
            {[](resil::ResilienceConfig& r) {
                 r.horizonSec = std::numeric_limits<double>::infinity();
             },
             "resilience.horizonSec must be finite \\(got inf\\)"},
            {[](resil::ResilienceConfig& r) {
                 r.recovery.spares.replenishMean = Seconds(std::nan(""));
             },
             "recovery.spares.replenishMean must not be NaN"},
            {[](resil::ResilienceConfig& r) {
                 r.mtbf.gpuMtbfSec = std::nan("");
             },
             "mtbf.gpuMtbfSec must not be NaN"},
            {[](resil::ResilienceConfig& r) { r.mtbf.gpuMtbfSec = 1e-6; },
             "mtbf.gpuMtbfSec \\(1e-06 s\\) over resilience.horizonSec"},
            {[](resil::ResilienceConfig& r) {
                 r.recovery.spares.replenishMean = Seconds(1e-6);
             },
             "recovery.spares.replenishMean \\(1e-06 s\\) over "
             "resilience.horizonSec"},
            {[](resil::ResilienceConfig& r) { r.horizonSec = 1e12; },
             "resilience.horizonSec \\(1e\\+12 s\\) expands to"},
            {[](resil::ResilienceConfig& r) {
                 r.checkpoint.storeGBps = 1e-300;
             },
             "checkpoint.storeGBps 1e-300\\) does not fit the event clock"},
            {[](resil::ResilienceConfig& r) {
                 r.checkpoint.async = true;
                 r.checkpoint.quiesceSec = 1e15;
             },
             "an async checkpoint.quiesceSec of 1e\\+15 s plus its"},
        };
    for (const auto& [edit, message] : probes) {
        SCOPED_TRACE(message);
        ExperimentConfig cfg = smallConfig(2, 4, sim::BackendKind::Des);
        cfg.resilience.enabled = true;
        cfg.resilience.mtbf.gpuMtbfSec = 120.0;
        edit(cfg.resilience);
        EXPECT_EXIT(benchutil::runSweep({cfg}, benchutil::SweepFlags{}),
                    testing::ExitedWithCode(2), message);
    }
}

TEST(SweepFlagsDeath, TimesPastTheEventClockExitTwo)
{
    // Each of these once passed validate and aborted in the event
    // kernel: a sample period under one tick or past a Tick's range, a
    // fault window that starts or ends past it.
    const std::pair<void (*)(ExperimentConfig&), const char*> probes[] = {
        {[](ExperimentConfig& c) {
             c.enableSampler = true;
             c.samplePeriodSec = 1e-10;
         },
         "samplePeriodSec must be positive: .* \\(got 1e-10\\)"},
        {[](ExperimentConfig& c) {
             c.enableSampler = true;
             c.samplePeriodSec = 1e11;
         },
         "samplePeriodSec must be positive: .* \\(got 1e\\+11\\)"},
        {[](ExperimentConfig& c) {
             c.faultScenario.faults = {
                 {faults::FaultKind::GpuSlowdown, 0, 1e11, 0.0, 0.5}};
         },
         "fault 0 \\(gpu-slowdown\\) startSec \\+ durationSec "
         "\\(1e\\+11 s\\) does not fit the event clock"},
        {[](ExperimentConfig& c) {
             c.faultScenario.faults = {
                 {faults::FaultKind::GpuSlowdown, 0, 0.0, 1e11, 0.5}};
         },
         "fault 0 \\(gpu-slowdown\\) startSec \\+ durationSec "
         "\\(1e\\+11 s\\) does not fit the event clock"},
    };
    for (const auto& [edit, message] : probes) {
        SCOPED_TRACE(message);
        ExperimentConfig cfg = smallConfig(2, 4, sim::BackendKind::Des);
        edit(cfg);
        EXPECT_EXIT(benchutil::runSweep({cfg}, benchutil::SweepFlags{}),
                    testing::ExitedWithCode(2), message);
    }
}

TEST(SweepFlags, ParsesBackendValues)
{
    const char* argv[] = {"bench", "--backend=analytical"};
    auto flags =
        benchutil::sweepFlags(2, const_cast<char**>(argv));
    EXPECT_EQ(flags.backend, sim::BackendKind::Analytical);
    const char* argv2[] = {"bench", "--backend=des"};
    flags = benchutil::sweepFlags(2, const_cast<char**>(argv2));
    EXPECT_EQ(flags.backend, sim::BackendKind::Des);
}

TEST(AnalyticalBackend, SharedProjectorAllReduceIsMonotone)
{
    Bytes grad(10e9);
    BytesPerSec bw(12.5e9);
    Seconds lat(18e-6);
    // scale::Projector prices the DP AllReduce with the ring model.
    double t4 = coll::ringAllReduceSeconds(4, grad, bw, lat).value();
    double t32 = coll::ringAllReduceSeconds(32, grad, bw, lat).value();
    EXPECT_GT(t4, 0.0);
    // Ring allreduce wire volume per rank grows with (n-1)/n.
    EXPECT_GT(t32, t4);
    EXPECT_DOUBLE_EQ(coll::ringAllReduceSeconds(1, grad, bw, lat).value(),
                     0.0);
}

} // namespace
