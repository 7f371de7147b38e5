/**
 * @file
 * Tests for obs::CriticalPathRecorder / analyze(): a hand-computed
 * golden on a 2-stage pipeline x 2-DP shaped record set, the
 * path-time identity and slack non-negativity on real engine runs,
 * byte-identity of simulation results with tracing on vs off,
 * double-run determinism of the report artifacts, folded-run
 * semantics, and straggler dominance under a node power fault.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/cluster.hh"
#include "core/compare.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "obs/critical_path.hh"

namespace {

using namespace charllm;

constexpr double kZero[obs::kNumThrottleSlots] = {0.0, 0.0, 0.0};

// ---- hand-computed golden --------------------------------------------------

/**
 * Two devices, one iteration [0, 10]:
 *
 *   dev0: A [0,3] ------> send [3,4] ----.
 *   dev1: B [0,2] (recv posted at 2) ----+-> C [4,7] -> allreduce
 *   dev0: D [3,6] (arrives at 6) --------------------/  [7,10]
 *
 * The collective launches at dev1's arrival (7); dev0 waited [6,7].
 * The receiver posted its recv at 2 but the flow only started at 3,
 * so [2,3] of upstream path time is a pipeline bubble charged to the
 * receiver. Expected partition of the 10 s wall:
 *
 *   [0,2]  compute dev0      [4,6]  compute dev1
 *   [2,3]  bubble  dev1      [6,7]  straggler wait dev1
 *   [3,4]  p2p wire (net)    [7,10] collective wire (net)
 */
struct GoldenRun
{
    obs::CriticalPathRecorder rec{2};
    int a, b, send, c, d, ar;

    GoldenRun()
    {
        rec.beginIteration(0, false, 0.0);
        a = rec.onComputeDone(0, 0.0, 3.0, "A", -1, kZero);
        b = rec.onComputeDone(1, 0.0, 2.0, "B", -1, kZero);
        send = rec.onP2PDone(0, 1, 3.0, 4.0, "send", rec.head(0),
                             /*recvPostedSec=*/2.0,
                             /*internode=*/false);
        rec.setHead(1, send); // receiver woken by the flow completion
        // C's power-cap estimate exceeds its 3 s span; analysis clips.
        const double slowC[obs::kNumThrottleSlots] = {0.5, 5.0, 0.0};
        c = rec.onComputeDone(1, 4.0, 7.0, "C", rec.head(1), slowC);
        // D is off the critical path: its throttle must not count.
        const double slowD[obs::kNumThrottleSlots] = {0.0, 9.0, 0.0};
        d = rec.onComputeDone(0, 3.0, 6.0, "D", a, slowD);
        ar = rec.onCollectiveDone({{0, 6.0}, {1, 7.0}}, {d, c}, 10.0,
                                  "allreduce", /*internode=*/false);
        rec.endIteration(10.0, false);
    }
};

TEST(CriticalPathGolden, SegmentsMatchHandComputation)
{
    GoldenRun g;
    auto report = g.rec.analyze();
    ASSERT_EQ(report.iterations.size(), 1u);
    const auto& iter = report.iterations[0];
    ASSERT_EQ(iter.segments.size(), 6u);

    using CC = obs::CauseClass;
    struct Want
    {
        double start, end;
        CC cause;
        int dev;
    };
    const Want want[6] = {
        {0.0, 2.0, CC::Compute, 0},
        {2.0, 3.0, CC::BubblePipeline, 1},
        {3.0, 4.0, CC::CommP2PScaleup, -1},
        {4.0, 6.0, CC::Compute, 1},
        {6.0, 7.0, CC::WaitStraggler, 1},
        {7.0, 10.0, CC::CommCollScaleup, -1},
    };
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_DOUBLE_EQ(iter.segments[i].startSec, want[i].start)
            << "segment " << i;
        EXPECT_DOUBLE_EQ(iter.segments[i].endSec, want[i].end)
            << "segment " << i;
        EXPECT_EQ(iter.segments[i].cause, want[i].cause)
            << "segment " << i;
        EXPECT_EQ(iter.segments[i].dev, want[i].dev) << "segment " << i;
    }

    auto cause = [&](CC c) {
        return iter.causeSeconds[static_cast<std::size_t>(c)];
    };
    EXPECT_DOUBLE_EQ(cause(CC::Compute), 4.0);
    EXPECT_DOUBLE_EQ(cause(CC::BubblePipeline), 1.0);
    EXPECT_DOUBLE_EQ(cause(CC::CommP2PScaleup), 1.0);
    EXPECT_DOUBLE_EQ(cause(CC::WaitStraggler), 1.0);
    EXPECT_DOUBLE_EQ(cause(CC::CommCollScaleup), 3.0);
    EXPECT_DOUBLE_EQ(cause(CC::Startup), 0.0);

    EXPECT_DOUBLE_EQ(iter.deviceSeconds.at(0), 2.0);
    EXPECT_DOUBLE_EQ(iter.deviceSeconds.at(1), 4.0);
    EXPECT_DOUBLE_EQ(iter.deviceSeconds.at(-1), 4.0);
    EXPECT_EQ(report.dominantDevice(), 1);
    EXPECT_DOUBLE_EQ(report.deviceSeconds(1), 4.0);
}

TEST(CriticalPathGolden, ThrottleAnnotationClipsToKernelSpan)
{
    GoldenRun g;
    auto report = g.rec.analyze();
    const auto& iter = report.iterations[0];
    using TS = obs::ThrottleSlot;
    EXPECT_DOUBLE_EQ(
        iter.throttleSeconds[static_cast<std::size_t>(TS::Thermal)],
        0.5);
    // C claimed 5 s of power-cap elongation over a 3 s span: clipped.
    EXPECT_DOUBLE_EQ(
        iter.throttleSeconds[static_cast<std::size_t>(TS::PowerCap)],
        3.0);
    EXPECT_DOUBLE_EQ(iter.deviceThrottleSeconds.at(1)[static_cast<
                         std::size_t>(TS::Thermal)],
                     0.5);
    EXPECT_DOUBLE_EQ(iter.deviceThrottleSeconds.at(1)[static_cast<
                         std::size_t>(TS::PowerCap)],
                     3.0);
    // D's 9 s power-cap claim is off-path: excluded entirely.
    EXPECT_EQ(iter.deviceThrottleSeconds.count(0), 0u);
    // The annotation is cross-cutting: the time-axis identity is
    // untouched by it.
    double sum = 0.0;
    for (double s : iter.causeSeconds)
        sum += s;
    EXPECT_NEAR(sum, iter.wallSeconds(), 1e-12);
}

TEST(CriticalPathGolden, SlackIsCpmBackwardPass)
{
    GoldenRun g;
    auto report = g.rec.analyze();
    // Hand CPM: on-path records (A, send, C, allreduce) have zero
    // slack; D can slip 1 s into the straggler window; B is a dead
    // end and can slip to the iteration close (10 - 2 = 8 s).
    EXPECT_EQ(report.slack.count(), 6u);
    EXPECT_DOUBLE_EQ(report.slack.min(), 0.0);
    EXPECT_DOUBLE_EQ(report.slack.max(), 8.0);
    EXPECT_DOUBLE_EQ(report.slack.sum(), 9.0);
}

TEST(CriticalPathGolden, ReportSerializationIsStable)
{
    GoldenRun g1, g2;
    auto r1 = g1.rec.analyze();
    auto r2 = g2.rec.analyze();
    EXPECT_EQ(r1.toJson(), r2.toJson());
    EXPECT_EQ(r1.toCsv().str(), r2.toCsv().str());
    // The JSON carries the rundiff-facing mean tree.
    EXPECT_NE(r1.toJson().find("\"wait.straggler\":1"),
              std::string::npos);
    EXPECT_NE(r1.toCsv().str().find("wait.straggler"),
              std::string::npos);
}

TEST(CriticalPath, EmptyIterationIsAllStartup)
{
    obs::CriticalPathRecorder rec(2);
    rec.beginIteration(0, false, 1.0);
    rec.endIteration(3.0, false);
    auto report = rec.analyze();
    ASSERT_EQ(report.iterations.size(), 1u);
    const auto& iter = report.iterations[0];
    ASSERT_EQ(iter.segments.size(), 1u);
    EXPECT_EQ(iter.segments[0].cause, obs::CauseClass::Startup);
    EXPECT_DOUBLE_EQ(
        iter.causeSeconds[static_cast<std::size_t>(
            obs::CauseClass::Startup)],
        2.0);
}

TEST(CriticalPath, AbortedIterationsAreSkipped)
{
    obs::CriticalPathRecorder rec(2);
    rec.beginIteration(0, false, 0.0);
    rec.onComputeDone(0, 0.0, 1.0, "A", -1, kZero);
    rec.endIteration(0.5, true); // aborted mid-flight
    auto report = rec.analyze();
    ASSERT_EQ(report.iterations.size(), 1u);
    EXPECT_TRUE(report.iterations[0].aborted);
    EXPECT_TRUE(report.iterations[0].segments.empty());
    EXPECT_EQ(report.measuredIterations, 0);
}

// ---- engine integration ----------------------------------------------------

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

core::ExperimentConfig
smallConfig(int world, int tp, int pp, int nodes = 1)
{
    core::ExperimentConfig cfg;
    cfg.cluster = core::h200Cluster(nodes);
    cfg.model = smallModel();
    cfg.par = parallel::ParallelConfig::forWorld(world, tp, pp);
    cfg.train.globalBatchSize = 16;
    cfg.warmupIterations = 1;
    cfg.measuredIterations = 2;
    cfg.enableCriticalPath = true;
    return cfg;
}

void
checkIdentity(const obs::CriticalPathReport& report)
{
    ASSERT_FALSE(report.iterations.empty());
    for (const auto& iter : report.iterations) {
        if (iter.aborted)
            continue;
        double wall = iter.wallSeconds();
        double tol = 1e-9 * std::max(1.0, wall);
        ASSERT_FALSE(iter.segments.empty());
        // Segments tile [start, end] exactly: contiguous, in order.
        EXPECT_NEAR(iter.segments.front().startSec, iter.startSec, tol);
        EXPECT_NEAR(iter.segments.back().endSec, iter.endSec, tol);
        double covered = 0.0;
        for (std::size_t i = 0; i < iter.segments.size(); ++i) {
            const auto& seg = iter.segments[i];
            EXPECT_LE(seg.startSec, seg.endSec);
            covered += seg.endSec - seg.startSec;
            if (i > 0) {
                EXPECT_NEAR(seg.startSec,
                            iter.segments[i - 1].endSec, tol);
            }
        }
        EXPECT_NEAR(covered, wall, tol)
            << "identity violated on iteration " << iter.index;
        double causeSum = 0.0;
        for (double s : iter.causeSeconds)
            causeSum += s;
        EXPECT_NEAR(causeSum, wall, tol);
    }
    EXPECT_GE(report.slack.min(), 0.0);
}

TEST(CriticalPathEngine, TwoStageTwoDpProgramIdentity)
{
    // A real 2-stage pipeline x 2-DP program (world 8 = TP2 x PP2 x
    // DP2): the engine must record P2P sends, DP collectives, and
    // compute into a partition of every iteration's wall time.
    auto r = core::Experiment::run(smallConfig(8, 2, 2));
    ASSERT_TRUE(r.feasible);
    ASSERT_NE(r.critPath, nullptr);
    const auto& cp = *r.critPath;
    EXPECT_EQ(cp.iterations.size(), 3u); // 1 warmup + 2 measured
    EXPECT_EQ(cp.measuredIterations, 2);
    checkIdentity(cp);
    using CC = obs::CauseClass;
    auto mean = [&](CC c) {
        return cp.meanCauseSeconds[static_cast<std::size_t>(c)];
    };
    EXPECT_GT(mean(CC::Compute), 0.0);
    // A 2-deep pipeline with 2-way DP exposes some non-compute path
    // time (wire, bubble, or straggler wait).
    EXPECT_GT(mean(CC::CommCollScaleup) + mean(CC::CommCollInternode) +
                  mean(CC::CommP2PScaleup) + mean(CC::CommP2PInternode) +
                  mean(CC::WaitStraggler) + mean(CC::BubblePipeline),
              0.0);
    EXPECT_NEAR(mean(CC::Compute) + mean(CC::CommCollScaleup) +
                    mean(CC::CommCollInternode) +
                    mean(CC::CommP2PScaleup) +
                    mean(CC::CommP2PInternode) +
                    mean(CC::WaitStraggler) +
                    mean(CC::BubblePipeline) + mean(CC::Startup),
                cp.meanWallSeconds,
                1e-9 * std::max(1.0, cp.meanWallSeconds));
}

TEST(CriticalPathEngine, IdentityHoldsAcrossShapes)
{
    for (auto [tp, pp] : {std::pair{2, 4}, {8, 1}, {2, 1}}) {
        auto r = core::Experiment::run(smallConfig(8, tp, pp));
        ASSERT_TRUE(r.feasible) << "TP" << tp << "-PP" << pp;
        ASSERT_NE(r.critPath, nullptr);
        checkIdentity(*r.critPath);
    }
}

TEST(CriticalPathEngine, EnablingTracingIsByteInvisible)
{
    auto cfg = smallConfig(8, 2, 4);
    cfg.enableCriticalPath = false;
    auto off = core::Experiment::run(cfg);
    cfg.enableCriticalPath = true;
    auto on = core::Experiment::run(cfg);
    ASSERT_TRUE(off.feasible);
    EXPECT_EQ(off.critPath, nullptr);
    ASSERT_NE(on.critPath, nullptr);
    // The recorder is passive: every simulation output is
    // byte-identical, not just numerically close.
    EXPECT_EQ(core::compareResults(on, off, core::tolerance("bitwise"))
                  .breaches,
              std::vector<std::string>{});
    EXPECT_EQ(core::toJson(off), core::toJson(on));
    EXPECT_EQ(core::summaryCsv({&off, 1}).str(),
              core::summaryCsv({&on, 1}).str());
}

TEST(CriticalPathEngine, DoubleRunArtifactsAreByteIdentical)
{
    auto cfg = smallConfig(8, 2, 4);
    auto r1 = core::Experiment::run(cfg);
    auto r2 = core::Experiment::run(cfg);
    ASSERT_NE(r1.critPath, nullptr);
    ASSERT_NE(r2.critPath, nullptr);
    EXPECT_EQ(r1.critPath->toJson(), r2.critPath->toJson());
    EXPECT_EQ(r1.critPath->toCsv().str(), r2.critPath->toCsv().str());
}

TEST(CriticalPathEngine, FoldedRunCarriesMultiplicity)
{
    // Rank-symmetry collapse: the representative's path stands for
    // every DP replica; the report says so instead of pretending the
    // folded world ran.
    const int world = 32, tp = 2, pp = 2;
    core::ExperimentConfig cfg;
    cfg.cluster =
        core::oneGpuPerNodeCluster(core::h200Cluster(1), world);
    cfg.model = smallModel();
    cfg.par = parallel::ParallelConfig::forWorld(world, tp, pp);
    cfg.train.globalBatchSize = world / (tp * pp);
    cfg.warmupIterations = 1;
    cfg.measuredIterations = 2;
    cfg.checkMemory = false;
    cfg.symmetryCollapse = true;
    cfg.enableCriticalPath = true;
    auto r = core::Experiment::run(cfg);
    ASSERT_TRUE(r.feasible);
    ASSERT_TRUE(r.symmetry.collapsed) << r.symmetry.reason;
    ASSERT_NE(r.critPath, nullptr);
    EXPECT_TRUE(r.critPath->folded);
    EXPECT_EQ(r.critPath->multiplicity, world / (tp * pp));
    checkIdentity(*r.critPath);
    EXPECT_NE(r.critPath->toJson().find("\"folded\":true"),
              std::string::npos);
}

TEST(CriticalPathEngine, StragglerNodeDominatesExtractedPath)
{
    // Cap node 1's power delivery hard (the paper's Sec. 1 incident):
    // its GPUs run slow, so the critical path must run through them —
    // slowed compute plus straggler wait — and the power_cap throttle
    // annotation must land on the capped devices.
    auto cfg = smallConfig(16, 2, 2, /*nodes=*/2);
    cfg.nodePowerCaps = {{1, 150.0}};
    auto r = core::Experiment::run(cfg);
    ASSERT_TRUE(r.feasible);
    ASSERT_NE(r.critPath, nullptr);
    const auto& cp = *r.critPath;
    checkIdentity(cp);
    double faulty = 0.0, healthy = 0.0;
    for (int g = 0; g < 16; ++g)
        (g / 8 == 1 ? faulty : healthy) += cp.deviceSeconds(g);
    EXPECT_GT(faulty, healthy)
        << "capped node carries " << faulty << "s of path vs "
        << healthy << "s healthy";
    constexpr auto kPowerCap =
        static_cast<std::size_t>(obs::ThrottleSlot::PowerCap);
    double faultyThrottle = 0.0, healthyThrottle = 0.0;
    for (const auto& [dev, slots] : cp.meanDeviceThrottleSeconds)
        (dev / 8 == 1 ? faultyThrottle : healthyThrottle) +=
            slots[kPowerCap];
    EXPECT_GT(faultyThrottle, 0.0);
    EXPECT_GT(faultyThrottle, healthyThrottle);
    EXPECT_GT(cp.meanThrottleSeconds[kPowerCap], 0.0);
}

} // namespace
