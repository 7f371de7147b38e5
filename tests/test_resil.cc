/**
 * @file
 * Tests for the resilience subsystem: checkpoint cost arithmetic and
 * the Young/Daly interval rule, seeded failure-schedule generation,
 * the recovery state machine (transient retry without rollback,
 * retry-budget escalation, fatal rollback with exact replay of the
 * iterations lost since the last completed checkpoint, absorbed
 * overlapping failures, async-checkpoint discard), goodput
 * conservation under random fault schedules, byte-determinism of the
 * goodput outputs, and the engine's overlapping-fail-stop restart
 * debt regression.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "coll/collective_engine.hh"
#include "core/cluster.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "hw/platform.hh"
#include "net/flow_network.hh"
#include "parallel/elastic_world.hh"
#include "resil/checkpoint.hh"
#include "resil/failure_gen.hh"
#include "resil/goodput.hh"
#include "resil/recovery.hh"
#include "runtime/engine.hh"
#include "runtime/program_builder.hh"
#include "sim/simulator.hh"

namespace {

using namespace charllm;
using namespace charllm::unit_literals;
using resil::Bucket;
using resil::FailureEvent;
using resil::FailureKind;

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

// ---- checkpoint cost model --------------------------------------------------

TEST(Checkpoint, StoragePathBottleneck)
{
    resil::StoragePath path{BytesPerSec(64e9), BytesPerSec(12.5e9),
                            BytesPerSec(100e9)};
    // 8 ranks share the NIC, 16 share the store: NIC wins the
    // bottleneck (12.5/8 = 1.5625 GB/s < 6.25 GB/s < 64 GB/s).
    resil::CheckpointModel m(Bytes(1e9), path, 8, 16);
    EXPECT_DOUBLE_EQ(m.effectiveRankBandwidth().value(), 12.5e9 / 8.0);
    EXPECT_DOUBLE_EQ(m.writeSeconds().value(), 1e9 / (12.5e9 / 8.0));
    EXPECT_DOUBLE_EQ(m.readSeconds().value(), m.writeSeconds().value());

    // A slow store flips the bottleneck.
    resil::StoragePath slow{BytesPerSec(64e9), BytesPerSec(12.5e9),
                            BytesPerSec(10e9)};
    resil::CheckpointModel s(Bytes(1e9), slow, 8, 16);
    EXPECT_DOUBLE_EQ(s.effectiveRankBandwidth().value(), 10e9 / 16.0);
}

TEST(Checkpoint, RankStateScalesWithOptimizerSharding)
{
    auto m = smallModel();
    auto par = parallel::ParallelConfig::forWorld(16, 2, 2);
    parallel::MemoryOptions opts;
    Bytes plain = resil::CheckpointModel::rankStateBytes(m, par, opts);
    EXPECT_GT(plain.value(), 0.0);
    parallel::MemoryOptions zero = opts;
    zero.zero1 = true;
    Bytes sharded =
        resil::CheckpointModel::rankStateBytes(m, par, zero);
    // ZeRO-1 shards the optimizer state across dp=4 ranks, so the
    // per-rank checkpoint shrinks (weights stay replicated).
    EXPECT_LT(sharded.value(), plain.value());
}

TEST(Checkpoint, YoungDalyClosedForm)
{
    // tau* = sqrt(2 * C * MTBF).
    EXPECT_DOUBLE_EQ(
        resil::CheckpointModel::youngDalyInterval(Seconds(2.0),
                                                  Seconds(100.0))
            .value(),
        std::sqrt(2.0 * 2.0 * 100.0));
    EXPECT_TRUE(std::isinf(
        resil::CheckpointModel::youngDalyInterval(Seconds(2.0),
                                                  Seconds(0.0))
            .value()));
}

TEST(Checkpoint, YoungDalyMinimizesFirstOrderWaste)
{
    // First-order overhead fraction of checkpointing every tau
    // seconds with write cost C on a machine with MTBF M:
    // waste(tau) = C/tau (write stalls) + tau/(2M) (expected lost
    // work per failure). The closed form must hit the numeric argmin
    // of that function.
    const double C = 1.7, M = 240.0;
    double best_tau = 0.0;
    double best = std::numeric_limits<double>::infinity();
    for (double tau = 0.5; tau <= 120.0; tau += 0.01) {
        double waste = C / tau + tau / (2.0 * M);
        if (waste < best) {
            best = waste;
            best_tau = tau;
        }
    }
    double closed = resil::CheckpointModel::youngDalyInterval(
                        Seconds(C), Seconds(M))
                        .value();
    EXPECT_NEAR(closed, best_tau, 0.02);
}

// ---- failure generation -----------------------------------------------------

TEST(FailureGen, ClusterFatalMtbfPoolsFatalClasses)
{
    resil::MtbfProfile p;
    p.gpuMtbfSec = 1000.0;
    p.nodeMtbfSec = 4000.0;
    p.linkMtbfSec = 10.0; // transient: excluded from the fatal rate
    // 16 GPUs at 1/1000 + 2 nodes at 1/4000 = 0.0165 faults/s.
    EXPECT_NEAR(p.clusterFatalMtbfSec(16, 2), 1.0 / 0.0165, 1e-9);
    resil::MtbfProfile none;
    EXPECT_DOUBLE_EQ(none.clusterFatalMtbfSec(16, 2), 0.0);
}

TEST(FailureGen, DeterministicSortedAndBounded)
{
    resil::MtbfProfile p;
    p.gpuMtbfSec = 50.0;
    p.linkMtbfSec = 30.0;
    p.nodeMtbfSec = 200.0;
    auto a = resil::FailureGenerator::generate(p, 16, 2, 100.0_s, 42);
    auto b = resil::FailureGenerator::generate(p, 16, 2, 100.0_s, 42);
    auto c = resil::FailureGenerator::generate(p, 16, 2, 100.0_s, 43);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].target, b[i].target);
        EXPECT_DOUBLE_EQ(a[i].timeSec, b[i].timeSec);
        EXPECT_DOUBLE_EQ(a[i].clearSec, b[i].clearSec);
    }
    bool differs = a.size() != c.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].timeSec != c[i].timeSec;
    EXPECT_TRUE(differs);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_GE(a[i].timeSec, 0.0);
        EXPECT_LT(a[i].timeSec, 100.0);
        if (i > 0)
            EXPECT_GE(a[i].timeSec, a[i - 1].timeSec);
        if (a[i].kind == FailureKind::LinkTransient)
            EXPECT_GT(a[i].clearSec, 0.0);
        else
            EXPECT_DOUBLE_EQ(a[i].clearSec, 0.0);
    }
}

TEST(FailureGen, DisabledClassesNeverFire)
{
    resil::MtbfProfile p;
    p.linkMtbfSec = 5.0;
    auto events =
        resil::FailureGenerator::generate(p, 16, 2, 200.0_s, 7);
    ASSERT_FALSE(events.empty());
    for (const auto& e : events)
        EXPECT_EQ(e.kind, FailureKind::LinkTransient);
    resil::MtbfProfile off;
    EXPECT_TRUE(
        resil::FailureGenerator::generate(off, 16, 2, 200.0_s, 7)
            .empty());
}

// ---- retry backoff (closed form vs iterated product) ------------------------

TEST(RetryPolicy, ClosedFormBackoffMatchesIteratedProduct)
{
    // 0.25 s doubling per attempt: below the 30 s cap both forms are
    // exact powers of two.
    double iterated = 0.25;
    for (int attempt = 0; attempt < 7; ++attempt) {
        EXPECT_DOUBLE_EQ(resil::retryBackoff(attempt).value(), iterated)
            << "attempt " << attempt;
        iterated *= 2.0;
    }
}

TEST(RetryPolicy, BackoffCapClampsLargeAttempts)
{
    // 0.25 * 2^7 = 32 > 30: attempt 7 and everything after clamps.
    EXPECT_DOUBLE_EQ(resil::retryBackoff(6).value(), 16.0);
    EXPECT_DOUBLE_EQ(resil::retryBackoff(7).value(), 30.0);
    EXPECT_DOUBLE_EQ(resil::retryBackoff(100).value(), 30.0);
    // The old loop formulation overflowed to inf around attempt 1100;
    // the closed form stays clamped.
    EXPECT_DOUBLE_EQ(resil::retryBackoff(2000).value(), 30.0);
}

// ---- recovery state machine (manual stack, explicit schedules) --------------

struct RecoveryRun
{
    std::vector<runtime::IterationSpan> spans;
    resil::GoodputReport report;
    double writeSec = 0.0;
    double wallSec = 0.0;
};

/**
 * Run a tiny 8-GPU engine under a RecoveryManager with an explicit
 * failure schedule and a fixed-cost checkpoint model (1 GB rank
 * state over a 2 GB/s bottleneck -> 0.5 s write/read), so tests can
 * reason about exact commit/rollback arithmetic. A cfg with
 * DryPoolPolicy::ElasticShrink arms DP shrink over the run's two
 * replicas.
 */
RecoveryRun
runRecovery(std::vector<FailureEvent> schedule, double interval_s,
            bool async = false, int iterations = 8,
            resil::RecoveryConfig cfg = {}, double horizon_s = 1e9)
{
    core::ClusterSpec cluster = core::h100Cluster(1);
    sim::Simulator simulator;
    net::Topology topo(cluster.network);
    hw::Platform plat(simulator, cluster.gpu, cluster.chassis,
                      cluster.numNodes);
    net::FlowNetwork netw(simulator, topo);
    coll::CollectiveEngine colls(simulator, netw);
    parallel::RankMapper map(
        parallel::ParallelConfig::forWorld(8, 2, 2));
    runtime::TrainOptions topts;
    topts.globalBatchSize = 16;
    runtime::ProgramBuilder builder(smallModel(), map, topts);
    bool elastic = cfg.dryPolicy == resil::DryPoolPolicy::ElasticShrink;
    parallel::ElasticWorld world(2, topts.globalBatchSize, 1, false);
    if (elastic)
        builder.setElasticWorld(&world);
    runtime::EngineOptions eopts;
    eopts.warmupIterations = 1;
    eopts.measuredIterations = iterations - 1;
    runtime::TrainingEngine engine(plat, netw, colls, builder, eopts);

    resil::StoragePath path{BytesPerSec(64e9), BytesPerSec(16e9),
                            BytesPerSec(1000e9)};
    resil::CheckpointModel model(Bytes(1e9), path, 8, 8);
    resil::RecoveryManager manager(simulator, plat, netw, engine,
                                   model, Seconds(interval_s), async,
                                   0.05_s, cfg, std::move(schedule),
                                   Seconds(horizon_s), 0x5eed0fa1u);
    if (elastic)
        manager.attachElastic(map, world);
    plat.start();
    engine.run();

    RecoveryRun run;
    run.spans = engine.iterationSpans();
    run.report = manager.finalize({});
    run.writeSec = model.writeSeconds().value();
    run.wallSec = manager.wallEndSec();
    return run;
}

TEST(Recovery, HealthyRunIsAllUseful)
{
    auto run = runRecovery({}, 1e9);
    const auto& rep = run.report;
    EXPECT_DOUBLE_EQ(rep.ettr(), 1.0);
    EXPECT_DOUBLE_EQ(rep.slice(Bucket::Useful).seconds, rep.wallSec);
    EXPECT_EQ(rep.stats.rollbacks, 0);
    EXPECT_EQ(rep.stats.checkpointsCommitted, 0);
    for (const auto& span : run.spans) {
        EXPECT_FALSE(span.aborted);
        EXPECT_FALSE(span.replay);
    }
}

TEST(Recovery, CheckpointCadencePaysWriteStalls)
{
    auto healthy = runRecovery({}, 1e9);
    auto run = runRecovery({}, 1.0);
    const auto& rep = run.report;
    ASSERT_GT(rep.stats.checkpointsCommitted, 0);
    // Sync checkpoints: each committed checkpoint paused the run for
    // exactly one write. (Loose tolerance on the wall comparison:
    // GPUs cool during the stalls, so post-pause iterations run
    // microseconds faster than the healthy run's.)
    EXPECT_NEAR(rep.slice(Bucket::Checkpoint).seconds,
                rep.stats.checkpointsCommitted * run.writeSec, 1e-9);
    EXPECT_NEAR(run.wallSec,
                healthy.wallSec +
                    rep.stats.checkpointsCommitted * run.writeSec,
                1e-3);
    // Useful time is unchanged: stalls never distort iteration time.
    EXPECT_NEAR(rep.slice(Bucket::Useful).seconds, healthy.wallSec,
                1e-3);
}

TEST(Recovery, TransientRetryRecoversWithoutRollback)
{
    auto healthy = runRecovery({}, 1e9);
    double mid = healthy.wallSec / 2.0;
    // Outage clears 0.6 s in; detection at +0.5 s, first retry at
    // +0.75 s >= clear -> attempt 1 succeeds.
    auto run =
        runRecovery({{FailureKind::LinkTransient, 0, mid, 0.6}}, 1e9);
    const auto& s = run.report.stats;
    EXPECT_EQ(s.transientFaults, 1);
    EXPECT_EQ(s.transientRecovered, 1);
    EXPECT_EQ(s.retriesAttempted, 1);
    EXPECT_EQ(s.retriesEscalated, 0);
    EXPECT_EQ(s.rollbacks, 0);
    EXPECT_EQ(s.iterationsReplayed, 0);
    for (const auto& span : run.spans) {
        EXPECT_FALSE(span.aborted);
        EXPECT_FALSE(span.replay);
    }
    // The detection + retry windows are accounted.
    EXPECT_NEAR(run.report.slice(Bucket::Detection).seconds, 0.5,
                1e-9);
    EXPECT_NEAR(run.report.slice(Bucket::Retry).seconds, 0.25, 1e-9);
}

TEST(Recovery, ConstantsPinTheRecoveryLedger)
{
    auto healthy = runRecovery({}, 1e9);
    double mid = healthy.wallSec / 2.0;
    // From detection (the torn attempt's end) to the next attempt:
    // the replacement window plus the checkpoint read.
    auto repairWindow = [](const RecoveryRun& run) {
        for (std::size_t i = 0; i + 1 < run.spans.size(); ++i)
            if (run.spans[i].aborted)
                return run.spans[i + 1].startSec - run.spans[i].endSec;
        return -1.0;
    };

    // A node is declared dead after 3 missed 0.5 s heartbeats; the
    // warm spare attaches in 2 s.
    auto warm =
        runRecovery({{FailureKind::NodeFatal, 0, mid, 0.0}}, 1e9);
    ASSERT_EQ(warm.report.stats.sparesConsumed, 1);
    EXPECT_NEAR(warm.report.slice(Bucket::Detection).seconds, 1.5,
                1e-9);
    EXPECT_NEAR(repairWindow(warm), 2.0 + warm.writeSec, 1e-6);

    // A dry pool under StallReboot waits out the 60 s reboot.
    resil::RecoveryConfig dry;
    dry.spares.capacity = 0;
    auto reboot = runRecovery({{FailureKind::GpuFatal, 3, mid, 0.0}},
                              1e9, false, 8, dry);
    ASSERT_EQ(reboot.report.stats.poolDryEvents, 1);
    EXPECT_NEAR(reboot.report.slice(Bucket::Detection).seconds, 0.5,
                1e-9);
    EXPECT_NEAR(repairWindow(reboot), 60.0 + reboot.writeSec, 1e-6);

    // An elastic shrink pauses for the 0.2 s quiesce and the 1.0 s
    // group re-init; a fault that tore a live collective also reads
    // the last checkpoint back.
    resil::RecoveryConfig shrink = dry;
    shrink.dryPolicy = resil::DryPoolPolicy::ElasticShrink;
    auto elastic = runRecovery({{FailureKind::GpuFatal, 3, mid, 0.0}},
                               1e9, false, 8, shrink);
    const auto& s = elastic.report.stats;
    ASSERT_EQ(s.elasticShrinks, 1);
    EXPECT_NEAR(elastic.report.slice(Bucket::Reconfig).seconds,
                1.2 + s.rollbacks * elastic.writeSec, 1e-9);
}

TEST(Recovery, RetryBudgetExhaustionEscalatesToRollback)
{
    auto healthy = runRecovery({}, 1e9, false, 24);
    double fail = healthy.wallSec / 4.0;
    // The outage never clears inside the backoff budget: detection
    // (0.5 s) and four backoffs (0.25 + 0.5 + 1 + 2 s) escalate 4.25 s
    // after the fault, which the run is long enough to reach.
    ASSERT_LT(fail + 4.25, healthy.wallSec);
    auto run = runRecovery(
        {{FailureKind::LinkTransient, 0, fail, 1e9}}, 1e9, false, 24);
    const auto& s = run.report.stats;
    EXPECT_EQ(s.transientFaults, 1);
    EXPECT_EQ(s.transientRecovered, 0);
    EXPECT_EQ(s.retriesAttempted, 4);
    EXPECT_EQ(s.retriesEscalated, 1);
    EXPECT_EQ(s.rollbacks, 1);
    EXPECT_GT(run.wallSec, healthy.wallSec);
}

TEST(Recovery, FatalFaultReplaysExactlyTheLostIterations)
{
    auto healthy = runRecovery({}, 1e9, false, 10);
    double mid = healthy.wallSec * 0.6;
    auto run = runRecovery({{FailureKind::GpuFatal, 3, mid, 0.0}},
                           2.0, false, 10);
    const auto& rep = run.report;
    ASSERT_EQ(rep.stats.rollbacks, 1);
    ASSERT_EQ(rep.stats.fatalFaults, 1);

    // Locate the abort and count what was committed before it.
    double abort_s = -1.0;
    for (const auto& span : run.spans) {
        if (span.aborted) {
            EXPECT_LT(abort_s, 0.0) << "more than one aborted span";
            abort_s = span.endSec;
        }
    }
    ASSERT_GT(abort_s, 0.0);
    int committed_before = 0;
    for (const auto& span : run.spans) {
        if (!span.aborted && !span.replay &&
            span.endSec <= abort_s + 1e-9)
            ++committed_before;
    }

    // Reconstruct the rollback target from observable output: sync
    // checkpoints commit when their write window (a Checkpoint
    // timeline segment) ends, covering every iteration span fully
    // committed before the write began.
    int covered = 0;
    for (const auto& seg : rep.timeline) {
        if (seg.bucket != Bucket::Checkpoint ||
            seg.endSec > abort_s + 1e-9)
            continue;
        int n = 0;
        for (const auto& span : run.spans) {
            if (!span.aborted && !span.replay &&
                span.endSec <= seg.startSec + 1e-9)
                ++n;
        }
        covered = std::max(covered, n);
    }
    ASSERT_GT(rep.stats.checkpointsCommitted, 0);

    // Exactness: replayed == committed-at-abort - checkpoint-covered.
    EXPECT_EQ(rep.stats.iterationsReplayed,
              committed_before - covered);
    EXPECT_EQ(rep.stats.iterationsAborted, 1);

    // The replayed spans re-execute exactly the lost indices, in
    // order, immediately after recovery.
    std::vector<int> replayed;
    for (const auto& span : run.spans) {
        if (span.replay)
            replayed.push_back(span.index);
    }
    ASSERT_EQ(static_cast<int>(replayed.size()),
              rep.stats.iterationsReplayed);
    for (std::size_t i = 0; i < replayed.size(); ++i)
        EXPECT_EQ(replayed[i], covered + static_cast<int>(i));

    // All ten iterations still committed exactly once in the end.
    int final_commits = 0;
    for (const auto& span : run.spans) {
        if (!span.aborted)
            ++final_commits;
    }
    EXPECT_EQ(final_commits, 10 + rep.stats.iterationsReplayed);
}

TEST(Recovery, OverlappingFatalIsAbsorbedIntoOneRollback)
{
    auto healthy = runRecovery({}, 1e9);
    double mid = healthy.wallSec / 2.0;
    // The second GPU dies while the first fault's recovery window is
    // open: one maintenance window covers both.
    auto run = runRecovery({{FailureKind::GpuFatal, 2, mid, 0.0},
                            {FailureKind::GpuFatal, 5, mid + 1.0, 0.0}},
                           2.0);
    const auto& s = run.report.stats;
    EXPECT_EQ(s.failuresInjected, 2);
    EXPECT_EQ(s.failuresAbsorbed, 1);
    EXPECT_EQ(s.rollbacks, 1);
}

TEST(Recovery, AsyncCheckpointKilledMidWriteIsDiscarded)
{
    // Find when the first async quiesce ends on a healthy run; the
    // background write then runs for writeSec. A fault detected
    // inside that window must discard the in-flight checkpoint and
    // roll back to the previous one (step 0 here).
    auto base = runRecovery({}, 2.0, true, 10);
    ASSERT_GT(base.report.stats.checkpointsCommitted, 0);
    double quiesce_end = -1.0;
    for (const auto& seg : base.report.timeline) {
        if (seg.bucket == Bucket::Checkpoint) {
            quiesce_end = seg.endSec;
            break;
        }
    }
    ASSERT_GT(quiesce_end, 0.0);
    // Fault inside the quiesce stall (a timer, so the pre-fault
    // trajectory is untouched): detection 0.5 s later lands just
    // inside the (quiesce_end, quiesce_end + 0.5) write window.
    auto run = runRecovery(
        {{FailureKind::GpuFatal, 1, quiesce_end - 0.02, 0.0}}, 2.0,
        true, 10);
    EXPECT_EQ(run.report.stats.checkpointsDiscarded, 1);
    EXPECT_EQ(run.report.stats.rollbacks, 1);
    // Everything committed before the abort is replayed: the only
    // durable checkpoint was the implicit step-0 one.
    double abort_s = -1.0;
    for (const auto& span : run.spans) {
        if (span.aborted)
            abort_s = span.endSec;
    }
    ASSERT_GT(abort_s, 0.0);
    int committed_before = 0;
    for (const auto& span : run.spans) {
        if (!span.aborted && !span.replay &&
            span.endSec <= abort_s + 1e-9)
            ++committed_before;
    }
    EXPECT_EQ(run.report.stats.iterationsReplayed, committed_before);
}

TEST(Recovery, AsyncQuiesceStallsLessThanSyncWrite)
{
    auto sync = runRecovery({}, 1.0, false);
    auto async = runRecovery({}, 1.0, true);
    ASSERT_GT(async.report.stats.checkpointsCommitted, 0);
    // Async checkpoints stall only the 0.05 s quiesce per commit.
    EXPECT_LT(async.report.slice(Bucket::Checkpoint).seconds,
              sync.report.slice(Bucket::Checkpoint).seconds);
    EXPECT_LT(async.wallSec, sync.wallSec);
}

TEST(RecoveryDeathTest, HorizonShorterThanRunIsRejected)
{
    // The failure schedule was generated over [0, 0.001 s) but the
    // run is much longer: finalize() must refuse instead of silently
    // under-counting late failures.
    EXPECT_DEATH(runRecovery({}, 1e9, false, 8, {}, 0.001),
                 "horizon");
}

// ---- goodput conservation + determinism (experiment level) ------------------

core::ExperimentConfig
resilientConfig(std::uint64_t seed)
{
    core::ExperimentConfig cfg;
    cfg.cluster = core::h100Cluster(2);
    cfg.model = smallModel();
    cfg.par = parallel::ParallelConfig::forWorld(16, 2, 2);
    cfg.train.globalBatchSize = 16;
    cfg.warmupIterations = 1;
    cfg.measuredIterations = 6;
    cfg.enableSampler = true;
    cfg.samplePeriodSec = 0.02;
    cfg.resilience.enabled = true;
    cfg.resilience.seed = seed;
    cfg.resilience.mtbf.gpuMtbfSec = 60.0;
    cfg.resilience.mtbf.linkMtbfSec = 40.0;
    cfg.resilience.mtbf.nodeMtbfSec = 600.0;
    cfg.resilience.checkpoint.intervalSec = 1.5;
    return cfg;
}

TEST(GoodputProperty, BucketsConserveTimeAndEnergyAcrossSeeds)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        auto result = core::Experiment::run(resilientConfig(seed));
        ASSERT_TRUE(result.feasible);
        ASSERT_TRUE(result.goodputValid);
        const auto& g = result.goodput;
        double sec = 0.0, joules = 0.0;
        for (std::size_t b = 0; b < resil::kNumBuckets; ++b) {
            sec += g.buckets[b].seconds;
            joules += g.buckets[b].energyJ;
        }
        EXPECT_NEAR(sec / g.wallSec, 1.0, 1e-9) << "seed " << seed;
        ASSERT_GT(g.totalEnergyJ, 0.0);
        EXPECT_NEAR(joules / g.totalEnergyJ, 1.0, 1e-9)
            << "seed " << seed;
        EXPECT_GE(g.ettr(), 0.0);
        EXPECT_LE(g.ettr(), 1.0);
        // The timeline partitions [0, wall) without gaps.
        double cursor = 0.0;
        for (const auto& seg : g.timeline) {
            EXPECT_DOUBLE_EQ(seg.startSec, cursor);
            cursor = seg.endSec;
        }
        EXPECT_DOUBLE_EQ(cursor, g.wallSec);
    }
}

TEST(GoodputProperty, ByteIdenticalAcrossRuns)
{
    auto a = core::Experiment::run(resilientConfig(3));
    auto b = core::Experiment::run(resilientConfig(3));
    ASSERT_TRUE(a.goodputValid && b.goodputValid);
    EXPECT_EQ(a.goodput.toCsv().str(), b.goodput.toCsv().str());
    EXPECT_EQ(a.goodput.toJson(), b.goodput.toJson());
    EXPECT_EQ(core::runReportJson(a), core::runReportJson(b));
}

TEST(GoodputProperty, ReportOutputsCarryGoodput)
{
    auto result = core::Experiment::run(resilientConfig(2));
    ASSERT_TRUE(result.goodputValid);
    std::string json = core::runReportJson(result);
    EXPECT_NE(json.find("\"goodput\""), std::string::npos);
    EXPECT_NE(json.find("\"rollback_replay\""), std::string::npos);
    std::string csv = result.goodput.toCsv().str();
    EXPECT_NE(csv.find("bucket,seconds,share"), std::string::npos);
    EXPECT_NE(csv.find("useful"), std::string::npos);
}

// ---- engine restart-debt regression (satellite fix) -------------------------

TEST(EngineRestartDebt, OverlappingFailStopsPayMaxNotSum)
{
    core::ClusterSpec cluster = core::h100Cluster(1);
    sim::Simulator simulator;
    net::Topology topo(cluster.network);
    hw::Platform plat(simulator, cluster.gpu, cluster.chassis,
                      cluster.numNodes);
    net::FlowNetwork netw(simulator, topo);
    coll::CollectiveEngine colls(simulator, netw);
    parallel::RankMapper map(
        parallel::ParallelConfig::forWorld(8, 2, 2));
    runtime::TrainOptions topts;
    topts.globalBatchSize = 16;
    runtime::ProgramBuilder builder(smallModel(), map, topts);
    runtime::EngineOptions eopts;
    runtime::TrainingEngine engine(plat, netw, colls, builder, eopts);

    // Two fail-stops land in the same inter-iteration window: the
    // cluster restarts once, so the debt is the max restart cost,
    // not the sum (the old code double-paid 5 s here).
    engine.notifyFailStop(2.0_s);
    engine.notifyFailStop(3.0_s);
    EXPECT_DOUBLE_EQ(engine.pendingRestartSeconds(), 3.0);
    engine.notifyFailStop(1.0_s);
    EXPECT_DOUBLE_EQ(engine.pendingRestartSeconds(), 3.0);
}

} // namespace
