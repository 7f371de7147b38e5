/**
 * @file
 * Tests for elastic degraded-world recovery: the ElasticWorld liveness
 * mask and capacity arithmetic, the deterministic spare-pool
 * replenish schedule and dry-pool fallback, correlated failure-domain
 * expansion, DP shrink at a dry pool (mid-collective rollback vs
 * boundary no-rollback), grow at the next iteration boundary, exact
 * capacity-weighted goodput conservation across seeds, byte-identical
 * reruns, and the symmetry analyzer's refusal of elastic configs.
 */

#include <gtest/gtest.h>

#include <cmath>

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
#include "scale/symmetry.hh"
#include "sim/simulator.hh"

namespace {

using namespace charllm;
using namespace charllm::unit_literals;
using resil::Bucket;
using resil::FailureEvent;
using resil::FailureKind;

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

// ---- ElasticWorld arithmetic ------------------------------------------------

TEST(ElasticWorld, LivenessMaskAndCapacityFactor)
{
    parallel::ElasticWorld w(4, 16, 1, /*rebalance=*/false);
    EXPECT_EQ(w.aliveReplicas(), 4);
    EXPECT_FALSE(w.degraded());
    EXPECT_EQ(w.healthyMicrobatches(), 4);
    EXPECT_DOUBLE_EQ(w.capacityFactor(), 1.0);

    w.markDead(1);
    EXPECT_TRUE(w.degraded());
    EXPECT_EQ(w.aliveReplicas(), 3);
    EXPECT_TRUE(w.replicaDead(1));
    // No rebalance: survivors keep their healthy share, so the world
    // delivers exactly alive/dp of the healthy sample throughput.
    EXPECT_EQ(w.effectiveMicrobatches(), 4);
    EXPECT_DOUBLE_EQ(w.capacityFactor(), 0.75);

    w.markDead(3);
    EXPECT_DOUBLE_EQ(w.capacityFactor(), 0.5);

    w.markAlive(1);
    w.markAlive(3);
    EXPECT_FALSE(w.degraded());
    EXPECT_DOUBLE_EQ(w.capacityFactor(), 1.0);
}

TEST(ElasticWorld, RebalanceSpreadsTheFullBatch)
{
    parallel::ElasticWorld w(4, 16, 1, /*rebalance=*/true);
    w.markDead(0);
    // 3 survivors split 16 samples: ceil(16/3) = 6 microbatches each,
    // 18 samples of work for 16 samples of progress — the factor is
    // capped at 1 (never credit more than healthy throughput).
    EXPECT_EQ(w.effectiveMicrobatches(), 6);
    EXPECT_DOUBLE_EQ(w.capacityFactor(), 1.0);

    w.markDead(1);
    // 2 survivors: 8 microbatches each, exactly the full batch.
    EXPECT_EQ(w.effectiveMicrobatches(), 8);
    EXPECT_DOUBLE_EQ(w.capacityFactor(), 1.0);
}

// ---- spare-pool replenish schedule ------------------------------------------

TEST(SparePool, ReplenishScheduleIsDeterministicAndBounded)
{
    resil::SparePool pool;
    pool.replenishMean = Seconds(10.0);
    auto a = pool.replenishSchedule(Seconds(500.0), 99);
    auto b = pool.replenishSchedule(Seconds(500.0), 99);
    auto c = pool.replenishSchedule(Seconds(500.0), 100);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a, b);
    EXPECT_NE(a, c);
    double prev = 0.0;
    for (double t : a) {
        EXPECT_GT(t, prev);
        EXPECT_LT(t, 500.0);
        prev = t;
    }
    // Mean inter-arrival within 3 sigma of the configured mean.
    double mean = a.back() / static_cast<double>(a.size());
    EXPECT_NEAR(mean, 10.0,
                3.0 * 10.0 / std::sqrt(static_cast<double>(a.size())));

    resil::SparePool never;
    EXPECT_TRUE(never.replenishSchedule(Seconds(500.0), 99).empty());
}

// ---- correlated failure domains ---------------------------------------------

TEST(FailureGen, DomainEventsCoverExactlyTheDomain)
{
    resil::MtbfProfile p;
    p.switchMtbfSec = 20.0;
    p.nodesPerSwitch = 2;
    auto events =
        resil::FailureGenerator::generate(p, 32, 4, 200.0_s, 11);
    ASSERT_FALSE(events.empty());
    for (const auto& e : events) {
        EXPECT_EQ(e.kind, FailureKind::SwitchFatal);
        // Two switches over four nodes: domains start at 0 and 2.
        EXPECT_TRUE(e.target == 0 || e.target == 2);
        EXPECT_EQ(e.nodeSpan, 2);
    }

    resil::MtbfProfile q;
    q.pduMtbfSec = 30.0;
    q.nodesPerPdu = 8;
    auto pdu = resil::FailureGenerator::generate(q, 32, 4, 400.0_s, 3);
    ASSERT_FALSE(pdu.empty());
    for (const auto& e : pdu) {
        EXPECT_EQ(e.kind, FailureKind::PduFatal);
        EXPECT_EQ(e.target, 0);
        // The last (only) domain is clipped to the real node count.
        EXPECT_EQ(e.nodeSpan, 4);
    }
}

TEST(FailureGen, DomainClassesDoNotPerturbLegacySchedules)
{
    resil::MtbfProfile legacy;
    legacy.gpuMtbfSec = 50.0;
    legacy.linkMtbfSec = 30.0;
    legacy.nodeMtbfSec = 200.0;
    resil::MtbfProfile with_domains = legacy;
    with_domains.switchMtbfSec = 80.0;
    with_domains.nodesPerSwitch = 1;

    auto a = resil::FailureGenerator::generate(legacy, 16, 2, 100.0_s,
                                               42);
    auto b = resil::FailureGenerator::generate(with_domains, 16, 2,
                                               100.0_s, 42);
    // Every legacy event appears unchanged in the extended schedule:
    // each component class draws from its own salted sub-stream, so
    // enabling domains adds events without reordering anyone's draws.
    std::size_t j = 0;
    for (const auto& e : a) {
        while (j < b.size() && (b[j].kind == FailureKind::SwitchFatal ||
                                b[j].kind == FailureKind::PduFatal))
            ++j;
        ASSERT_LT(j, b.size());
        EXPECT_EQ(b[j].kind, e.kind);
        EXPECT_EQ(b[j].target, e.target);
        EXPECT_DOUBLE_EQ(b[j].timeSec, e.timeSec);
        EXPECT_DOUBLE_EQ(b[j].clearSec, e.clearSec);
        ++j;
    }
    EXPECT_GT(b.size(), a.size());
}

TEST(FailureGen, RaisingTheHorizonOnlyAppendsEvents)
{
    resil::MtbfProfile p;
    p.gpuMtbfSec = 50.0;
    p.linkMtbfSec = 80.0;
    p.nodeMtbfSec = 200.0;
    p.switchMtbfSec = 400.0;
    p.nodesPerSwitch = 2;
    auto small = resil::FailureGenerator::generate(p, 16, 2, 100.0_s, 9);
    auto big = resil::FailureGenerator::generate(p, 16, 2, 500.0_s, 9);
    // Per-component sub-streams make the horizon a pure extension
    // knob: the longer schedule's sub-100 s prefix is the shorter
    // schedule, event for event (benches can size the horizon to the
    // worst-case run without re-rolling the faults they shared).
    ASSERT_GT(big.size(), small.size());
    for (std::size_t i = 0; i < small.size(); ++i) {
        EXPECT_EQ(big[i].kind, small[i].kind);
        EXPECT_EQ(big[i].target, small[i].target);
        EXPECT_EQ(big[i].nodeSpan, small[i].nodeSpan);
        EXPECT_DOUBLE_EQ(big[i].timeSec, small[i].timeSec);
        EXPECT_DOUBLE_EQ(big[i].clearSec, small[i].clearSec);
    }
    for (std::size_t i = small.size(); i < big.size(); ++i)
        EXPECT_GE(big[i].timeSec, 100.0);
}

// ---- elastic shrink/grow state machine (direct stack) -----------------------

struct ElasticRun
{
    std::vector<runtime::IterationSpan> spans;
    resil::GoodputReport report;
    double wallSec = 0.0;
    int aliveAtEnd = 0;
    double readSec = 0.0;
};

/**
 * Run a 16-GPU TP4-PP1-DP4 engine (replica k owns devices 4k..4k+3;
 * node n hosts replicas 2n and 2n+1) under an elastic RecoveryManager
 * with an explicit failure schedule. The spare pool starts with
 * @p pool_capacity units and replenishes with mean @p replenish_s
 * (0 = never), so shrink and grow times are exact functions of the
 * schedule.
 */
ElasticRun
elasticRun(std::vector<FailureEvent> schedule, int pool_capacity,
           double replenish_s, int iterations = 8,
           double interval_s = 1e9, bool rebalance = false,
           const std::vector<double>* probe_times = nullptr,
           std::vector<char>* in_flight = nullptr)
{
    core::ClusterSpec cluster = core::h100Cluster(2);
    sim::Simulator simulator;
    net::Topology topo(cluster.network);
    hw::Platform plat(simulator, cluster.gpu, cluster.chassis,
                      cluster.numNodes);
    net::FlowNetwork netw(simulator, topo);
    coll::CollectiveEngine colls(simulator, netw);
    parallel::RankMapper map(
        parallel::ParallelConfig::forWorld(16, 4, 1));
    parallel::ElasticWorld world(4, 16, 1, rebalance);
    runtime::TrainOptions topts;
    topts.globalBatchSize = 16;
    runtime::ProgramBuilder builder(smallModel(), map, topts);
    builder.setElasticWorld(&world);
    runtime::EngineOptions eopts;
    eopts.warmupIterations = 1;
    eopts.measuredIterations = iterations - 1;
    runtime::TrainingEngine engine(plat, netw, colls, builder, eopts);

    resil::StoragePath path{BytesPerSec(64e9), BytesPerSec(16e9),
                            BytesPerSec(1000e9)};
    resil::CheckpointModel model(Bytes(1e9), path, 8, 8);
    resil::RecoveryConfig cfg;
    cfg.dryPolicy = resil::DryPoolPolicy::ElasticShrink;
    cfg.spares.capacity = pool_capacity;
    cfg.spares.replenishMean = Seconds(replenish_s);
    cfg.elastic.rebalance = rebalance;
    resil::RecoveryManager manager(
        simulator, plat, netw, engine, model, Seconds(interval_s),
        false, 0.05_s, cfg, std::move(schedule), Seconds(2000.0),
        0x5eed0fa1u);
    manager.attachElastic(map, world);
    if (probe_times != nullptr) {
        // Observation only: sample whether a collective is live at
        // each probe instant (events carry no side effects, so the
        // probed trajectory is identical to an unprobed one).
        in_flight->assign(probe_times->size(), 0);
        for (std::size_t i = 0; i < probe_times->size(); ++i) {
            double t = (*probe_times)[i];
            simulator.scheduleAt(sim::toTicks(t), [&engine, in_flight,
                                                  i] {
                (*in_flight)[i] =
                    engine.collectiveInFlight() ? 1 : 0;
            });
        }
    }
    plat.start();
    engine.run();

    ElasticRun run;
    run.spans = engine.iterationSpans();
    run.report = manager.finalize({});
    run.wallSec = manager.wallEndSec();
    run.aliveAtEnd = world.aliveReplicas();
    run.readSec = model.readSeconds().value();
    return run;
}

TEST(Elastic, DomainFaultShrinksExactlyTheDomainsReplicas)
{
    auto healthy = elasticRun({}, 0, 0.0);
    double mid = healthy.wallSec / 2.0;
    // Switch over node 0 kills devices 0..7 = replicas 0 and 1; the
    // pool is empty and never replenishes, so the world stays at
    // dp=2 to the end.
    FailureEvent ev;
    ev.kind = FailureKind::SwitchFatal;
    ev.target = 0;
    ev.timeSec = mid;
    ev.nodeSpan = 1;
    auto run = elasticRun({ev}, 0, 0.0);
    const auto& s = run.report.stats;
    EXPECT_EQ(s.domainFaults, 1);
    EXPECT_EQ(s.elasticShrinks, 2);
    EXPECT_EQ(s.elasticGrows, 0);
    EXPECT_EQ(s.poolDryEvents, 1);
    EXPECT_EQ(run.aliveAtEnd, 2);
    EXPECT_EQ(run.report.minActiveGpus(), 8);
    // Exactly one capacity step: 16 GPUs at factor 1, then 8 at 0.5.
    ASSERT_EQ(run.report.capacity.size(), 2u);
    EXPECT_EQ(run.report.capacity[0].activeGpus, 16);
    EXPECT_EQ(run.report.capacity[1].activeGpus, 8);
    EXPECT_DOUBLE_EQ(run.report.capacity[1].factor, 0.5);
    // The degraded tail is credited at exactly half rate.
    double degraded = run.report.slice(Bucket::Degraded).seconds;
    ASSERT_GT(degraded, 0.0);
    EXPECT_NEAR(run.report.degradedEffectiveSec, 0.5 * degraded,
                1e-9);
    // Degraded iterations still run the full microbatch count, so
    // they are no slower than healthy ones (smaller DP groups).
    EXPECT_LT(run.wallSec, healthy.wallSec + 10.0);
}

TEST(Elastic, ShrinkThenGrowRoundTripAndByteDeterminism)
{
    auto healthy = elasticRun({}, 1, 0.0, 20);
    double t1 = healthy.wallSec * 0.15;
    double t2 = t1 + 5.0;
    // The first fault consumes the single shelf unit (warm swap); the
    // second finds the pool dry and shrinks to dp=3. A later depot
    // delivery repairs the dead replica and the world grows back at
    // the next iteration boundary.
    std::vector<FailureEvent> plan = {
        {FailureKind::GpuFatal, 2, t1, 0.0},
        {FailureKind::GpuFatal, 5, t2, 0.0},
    };
    // Depot arrival times scale linearly with the mean (the uniform
    // draws are seed-fixed), so aim the first delivery 4 s after the
    // shrink: provably no restock before the second fault, and the
    // repaired replica rejoins while iterations remain.
    resil::SparePool probe;
    probe.replenishMean = Seconds(1.0);
    auto unit_arrivals = probe.replenishSchedule(
        Seconds(2000.0), 0x5eed0fa1u ^ 0x9e3779b97f4a7c15ULL);
    ASSERT_FALSE(unit_arrivals.empty());
    double mean = (t2 + 4.0) / unit_arrivals.front();
    auto run = elasticRun(plan, 1, mean, 20);
    const auto& s = run.report.stats;
    EXPECT_EQ(s.elasticShrinks, 1);
    EXPECT_EQ(s.elasticGrows, 1);
    EXPECT_GE(s.sparesReplenished, 1);
    // One unit for the warm swap, one for the shrunk replica's repair.
    EXPECT_EQ(s.sparesConsumed, 2);
    EXPECT_EQ(s.poolDryEvents, 1);
    EXPECT_EQ(run.aliveAtEnd, 4);
    // Full width -> shrunk -> full width again.
    ASSERT_GE(run.report.capacity.size(), 3u);
    EXPECT_EQ(run.report.capacity[0].activeGpus, 16);
    EXPECT_EQ(run.report.capacity[1].activeGpus, 12);
    EXPECT_EQ(run.report.capacity.back().activeGpus, 16);
    EXPECT_EQ(run.report.minActiveGpus(), 12);
    // Both reconfigurations are booked: each pays quiesce + group
    // re-init; the grow always adds the state-sync read, the shrink
    // only when the fault tore a live collective.
    double pause = resil::kElasticQuiesceSec + resil::kGroupReinitSec;
    double reconf = run.report.slice(Bucket::Reconfig).seconds;
    EXPECT_GE(reconf, 2.0 * pause + run.readSec - 1e-9);
    EXPECT_LE(reconf, 2.0 * pause + 2.0 * run.readSec + 1e-9);
    EXPECT_GT(run.report.slice(Bucket::Degraded).seconds, 0.0);
    EXPECT_GT(run.report.effectiveEttr(), 0.0);
    EXPECT_LE(run.report.effectiveEttr(), 1.0 + 1e-12);

    // Byte-determinism: the identical run produces identical output.
    auto again = elasticRun(plan, 1, mean, 20);
    EXPECT_EQ(run.report.toJson(), again.report.toJson());
    EXPECT_EQ(run.report.toCsv().str(), again.report.toCsv().str());
}

TEST(Elastic, BoundaryFaultShrinksWithoutRollback)
{
    // Checkpoint every 1 s (sync): find the first write window on a
    // healthy run, then land the fault inside it — no collective is
    // in flight during the pause, so the shrink keeps all committed
    // work (no rollback, no replay).
    auto base = elasticRun({}, 1 << 20, 0.0, 10, 1.0);
    ASSERT_GT(base.report.stats.checkpointsCommitted, 0);
    double ckpt_start = -1.0, ckpt_end = -1.0;
    for (const auto& seg : base.report.timeline) {
        if (seg.bucket == Bucket::Checkpoint) {
            ckpt_start = seg.startSec;
            ckpt_end = seg.endSec;
            break;
        }
    }
    ASSERT_GT(ckpt_start, 0.0);
    double boundary_t = ckpt_start + 0.5 * (ckpt_end - ckpt_start);
    auto run = elasticRun({{FailureKind::GpuFatal, 2, boundary_t,
                            0.0}},
                          0, 0.0, 10, 1.0);
    EXPECT_EQ(run.report.stats.elasticShrinks, 1);
    EXPECT_EQ(run.report.stats.rollbacks, 0);
    EXPECT_EQ(run.report.stats.iterationsReplayed, 0);
    for (const auto& span : run.spans)
        EXPECT_FALSE(span.replay);
}

TEST(Elastic, MidCollectiveFaultRollsBackToTheCheckpoint)
{
    // Find an instant where a collective is provably in flight: probe
    // a healthy run (identical config, no faults) on a fine grid and
    // pick a probed-true time inside committed iteration 4. A fault
    // there tears the survivors' shared gradient state, so the shrink
    // must restore the checkpoint and replay.
    auto healthy = elasticRun({}, 0, 0.0, 10, 1.0);
    double lo = -1.0, hi = -1.0;
    for (const auto& span : healthy.spans) {
        if (!span.aborted && !span.replay && span.index == 4) {
            lo = span.startSec;
            hi = span.endSec;
            break;
        }
    }
    ASSERT_GT(hi, lo);
    std::vector<double> probes;
    for (double t = lo; t < hi; t += (hi - lo) / 64.0)
        probes.push_back(t);
    std::vector<char> live;
    elasticRun({}, 0, 0.0, 10, 1.0, false, &probes, &live);
    double fault_t = -1.0;
    for (std::size_t i = 0; i < probes.size(); ++i) {
        if (live[i] != 0) {
            fault_t = probes[i];
            break;
        }
    }
    ASSERT_GT(fault_t, 0.0) << "no live collective probed";
    auto run =
        elasticRun({{FailureKind::GpuFatal, 2, fault_t, 0.0}}, 0, 0.0,
                   10, 1.0);
    EXPECT_EQ(run.report.stats.elasticShrinks, 1);
    EXPECT_EQ(run.report.stats.rollbacks, 1);
    int replays = 0;
    for (const auto& span : run.spans)
        replays += span.replay ? 1 : 0;
    EXPECT_EQ(replays, run.report.stats.iterationsReplayed);
    // The shrink pause includes the checkpoint-restore read.
    EXPECT_GE(run.report.slice(Bucket::Reconfig).seconds,
              run.readSec - 1e-9);
}

TEST(Elastic, WarmPoolAbsorbsFaultsUntilDry)
{
    auto healthy = elasticRun({}, 0, 0.0, 12);
    double t1 = healthy.wallSec * 0.3;
    // Two fatal faults with one shelf unit. The first is a cheap warm
    // swap (no shrink); the second lands after that repair window
    // closes (detect 0.5 + acquire 2.0 + restore 0.5 < 5), finds the
    // pool dry, and shrinks. No replenishment: dp=3 to the end.
    auto run = elasticRun({{FailureKind::GpuFatal, 2, t1, 0.0},
                           {FailureKind::GpuFatal, 5, t1 + 5.0, 0.0}},
                          1, 0.0, 12);
    const auto& s = run.report.stats;
    EXPECT_EQ(s.sparesConsumed, 1);
    EXPECT_EQ(s.poolDryEvents, 1);
    EXPECT_EQ(s.elasticShrinks, 1);
    EXPECT_EQ(s.elasticGrows, 0);
    EXPECT_EQ(run.aliveAtEnd, 3);
    EXPECT_EQ(run.report.minActiveGpus(), 12);
}

// ---- experiment-level conservation + wiring ---------------------------------

core::ExperimentConfig
elasticConfig(std::uint64_t seed)
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
    cfg.resilience.mtbf.switchMtbfSec = 300.0;
    cfg.resilience.mtbf.nodesPerSwitch = 1;
    cfg.resilience.checkpoint.intervalSec = 1.5;
    cfg.resilience.recovery.dryPolicy =
        resil::DryPoolPolicy::ElasticShrink;
    cfg.resilience.recovery.spares.capacity = 1;
    cfg.resilience.recovery.spares.replenishMean = Seconds(20.0);
    return cfg;
}

TEST(ElasticGoodput, ConservationHoldsAcrossSeeds)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        auto result = core::Experiment::run(elasticConfig(seed));
        ASSERT_TRUE(result.feasible);
        ASSERT_TRUE(result.goodputValid);
        const auto& g = result.goodput;
        double sec = 0.0, joules = 0.0;
        for (std::size_t b = 0; b < resil::kNumBuckets; ++b) {
            sec += g.buckets[b].seconds;
            joules += g.buckets[b].energyJ;
        }
        // Eight buckets, including Reconfig and Degraded, partition
        // the wall clock and the energy to 1e-9. (The ledger itself
        // re-checks the capacity-weighted degraded credit with an
        // independent integration at the same tolerance.)
        EXPECT_NEAR(sec / g.wallSec, 1.0, 1e-9) << "seed " << seed;
        ASSERT_GT(g.totalEnergyJ, 0.0);
        EXPECT_NEAR(joules / g.totalEnergyJ, 1.0, 1e-9)
            << "seed " << seed;
        EXPECT_GE(g.effectiveEttr(), 0.0);
        EXPECT_LE(g.effectiveEttr(), 1.0 + 1e-12);
        EXPECT_LE(g.degradedEffectiveSec,
                  g.slice(Bucket::Degraded).seconds + 1e-9);
        double cursor = 0.0;
        for (const auto& seg : g.timeline) {
            EXPECT_DOUBLE_EQ(seg.startSec, cursor);
            cursor = seg.endSec;
        }
        EXPECT_DOUBLE_EQ(cursor, g.wallSec);
    }
}

TEST(ElasticGoodput, ReportCarriesElasticBlockAndWorldTrack)
{
    auto result = core::Experiment::run(elasticConfig(4));
    ASSERT_TRUE(result.goodputValid);
    std::string json = core::runReportJson(result);
    EXPECT_NE(json.find("\"elastic\""), std::string::npos);
    EXPECT_NE(json.find("\"pool_dry_events\""), std::string::npos);
    EXPECT_NE(json.find("\"effective_ettr\""), std::string::npos);
    EXPECT_NE(json.find("resil.elastic.shrinks"), std::string::npos);
    if (result.goodput.stats.elasticShrinks > 0) {
        std::string trace = core::unifiedTraceJson(result);
        EXPECT_NE(trace.find("world_size"), std::string::npos);
    }
    // Byte-determinism end to end, including the new JSON blocks.
    auto again = core::Experiment::run(elasticConfig(4));
    EXPECT_EQ(json, core::runReportJson(again));
}

TEST(ElasticSymmetry, FoldRefusesElasticConfigsWithReason)
{
    scale::SymmetryAnalyzer::Input in;
    in.tp = 8;
    in.dp = 4;
    in.pp = 1;
    in.gpusPerNode = 8;
    in.requested = true;
    scale::SymmetryFold fold;
    auto ok = scale::SymmetryAnalyzer::analyze(in, &fold);
    ASSERT_TRUE(ok.collapsed);

    in.elastic = true;
    auto refused = scale::SymmetryAnalyzer::analyze(in, &fold);
    EXPECT_FALSE(refused.collapsed);
    EXPECT_EQ(refused.reason,
              "elastic shrink/grow changes the world size mid-run");

    // End to end: a collapse-requested elastic experiment runs fully
    // instantiated and surfaces the same reason string.
    auto cfg = elasticConfig(1);
    cfg.symmetryCollapse = true;
    auto result = core::Experiment::run(cfg);
    ASSERT_TRUE(result.goodputValid);
    EXPECT_TRUE(result.symmetry.requested);
    EXPECT_FALSE(result.symmetry.collapsed);
    EXPECT_EQ(result.symmetry.reason,
              "elastic shrink/grow changes the world size mid-run");
}

} // namespace
