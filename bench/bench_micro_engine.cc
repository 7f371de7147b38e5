/**
 * @file
 * Google-benchmark microbenchmarks for the simulator substrates:
 * event-queue throughput, flow-network max-min re-allocation,
 * collective execution, thermal integration, program construction,
 * and a full tiny training iteration. These guard the simulator's own
 * performance (the figure benches run thousands of simulated
 * iterations on top of these primitives).
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "coll/collective_engine.hh"
#include "core/cluster.hh"
#include "core/experiment.hh"
#include "hw/platform.hh"
#include "hw/thermal_model.hh"
#include "model/transformer_config.hh"
#include "net/flow_network.hh"
#include "parallel/rank_mapper.hh"
#include "runtime/engine.hh"
#include "sim/simulator.hh"

using namespace charllm;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State& state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        long count = 0;
        for (int i = 0; i < state.range(0); ++i) {
            q.scheduleAt(static_cast<sim::Tick>((i * 7919) % 100000),
                         [&count] { ++count; });
        }
        q.runAll();
        benchmark::DoNotOptimize(count);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

void
BM_FlowNetworkContention(benchmark::State& state)
{
    for (auto _ : state) {
        sim::Simulator s;
        net::Topology topo(net::Topology::hgxParams(4));
        net::FlowNetwork netw(s, topo);
        int done = 0;
        for (int i = 0; i < state.range(0); ++i) {
            netw.transfer(i % 32, (i * 11 + 1) % 32, Bytes(1e7),
                          [&done] { ++done; });
        }
        s.run();
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlowNetworkContention)->Arg(64)->Arg(512);

void
BM_FlowNetworkRecompute(benchmark::State& state)
{
    // Max-min re-allocation cost with a standing flow population:
    // admit flows across the fabric, let them join, then force
    // re-allocations without advancing simulated time.
    sim::Simulator s;
    net::Topology topo(net::Topology::hgxParams(4));
    net::FlowNetwork netw(s, topo);
    for (int i = 0; i < state.range(0); ++i) {
        netw.transfer(i % 32, (i * 11 + 1) % 32, Bytes(1e15),
                      [] {});
    }
    // Drain the admission latency so every flow is active.
    s.runUntil(sim::toTicks(0.01));
    net::LinkId nic = topo.nicOutLink(0);
    for (auto _ : state) {
        netw.setLinkDerate(nic, 0.5);
        netw.setLinkDerate(nic, 1.0);
    }
    state.SetItemsProcessed(state.iterations() * 2);
    state.counters["active_flows"] = static_cast<double>(
        netw.numActiveFlows());
}
BENCHMARK(BM_FlowNetworkRecompute)->Arg(64)->Arg(256);

void
BM_RingAllReduce(benchmark::State& state)
{
    for (auto _ : state) {
        sim::Simulator s;
        net::Topology topo(net::Topology::hgxParams(1));
        net::FlowNetwork netw(s, topo);
        coll::CollectiveEngine eng(s, netw);
        bool done = false;
        coll::CollectiveRequest req;
        req.kind = coll::CollectiveKind::AllReduce;
        req.ranks = {0, 1, 2, 3, 4, 5, 6, 7};
        req.bytes = Bytes(1e8);
        eng.run(req, [&done] { done = true; });
        s.run();
        benchmark::DoNotOptimize(done);
    }
}
BENCHMARK(BM_RingAllReduce);

void
BM_ThermalStep(benchmark::State& state)
{
    hw::ThermalModel tm(hw::hgxLayout(), 8);
    std::vector<Watts> powers(64, Watts(550.0));
    for (auto _ : state)
        tm.step(Seconds(0.002), powers);
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ThermalStep);

model::TransformerConfig
microModel()
{
    model::TransformerConfig c;
    c.name = "Micro";
    c.numLayers = 8;
    c.hiddenSize = 1024;
    c.numHeads = 8;
    c.numQueryGroups = 8;
    c.ffnHiddenSize = 4096;
    c.vocabSize = 32000;
    c.seqLength = 512;
    return c;
}

void
BM_ProgramBuild(benchmark::State& state)
{
    parallel::RankMapper map(
        parallel::ParallelConfig::forWorld(32, 2, 4));
    runtime::TrainOptions opts;
    opts.globalBatchSize = 64;
    runtime::ProgramBuilder builder(microModel(), map, opts);
    for (auto _ : state) {
        auto program = builder.build(0);
        benchmark::DoNotOptimize(program.numOps());
    }
}
BENCHMARK(BM_ProgramBuild);

void
BM_TinyTrainingIteration(benchmark::State& state)
{
    for (auto _ : state) {
        sim::Simulator s;
        net::Topology topo(net::Topology::hgxParams(1));
        hw::Platform plat(s, hw::h200Spec(), hw::hgxLayout(), 1);
        net::FlowNetwork netw(s, topo);
        coll::CollectiveEngine colls(s, netw);
        parallel::RankMapper map(
            parallel::ParallelConfig::forWorld(8, 2, 4));
        runtime::TrainOptions opts;
        opts.globalBatchSize = 8;
        runtime::ProgramBuilder builder(microModel(), map, opts);
        runtime::EngineOptions eopts;
        eopts.warmupIterations = 0;
        eopts.measuredIterations = 1;
        runtime::TrainingEngine engine(plat, netw, colls, builder,
                                       eopts);
        plat.start();
        engine.run();
        benchmark::DoNotOptimize(engine.avgIterationSeconds());
    }
}
BENCHMARK(BM_TinyTrainingIteration);

void
BM_TrainingIteration(benchmark::State& state)
{
    // Full DES training iteration with causal critical-path tracing
    // off (Arg 0) vs on (Arg 1). Items = popped events, so the two
    // arms' items/sec ratio is the recorder's overhead; the disabled
    // arm must stay within 2% of the enabled arm (gated by
    // tools/perf_smoke.py, ISSUE 9 acceptance).
    const bool critpath = state.range(0) != 0;
    core::ExperimentConfig cfg;
    cfg.cluster = core::h200Cluster(1);
    cfg.model = microModel();
    cfg.par = parallel::ParallelConfig::forWorld(8, 2, 4);
    cfg.train.globalBatchSize = 8;
    cfg.warmupIterations = 0;
    cfg.measuredIterations = 2;
    cfg.checkMemory = false;
    cfg.enableCriticalPath = critpath;
    std::uint64_t popped = 0;
    for (auto _ : state) {
        auto r = core::Experiment::run(cfg);
        popped += r.counters.eventsPopped;
        benchmark::DoNotOptimize(r.avgIterationSeconds);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(popped));
    state.counters["critpath"] = critpath ? 1.0 : 0.0;
}
BENCHMARK(BM_TrainingIteration)->Arg(0)->Arg(1);

void
BM_CollapsedTrainingIteration(benchmark::State& state)
{
    // World scaling under rank-symmetry collapse: one full training
    // iteration at logical world range(0) folded to tp*pp = 4
    // physical devices. Items = aggregate events (physical pops times
    // the DP multiplicity), so items/sec is the collapsed engine's
    // effective event rate on the logical cluster.
    const int world = static_cast<int>(state.range(0));
    const int tp = 2, pp = 2;
    const int dp = world / (tp * pp);
    core::ExperimentConfig cfg;
    cfg.cluster =
        core::oneGpuPerNodeCluster(core::h200Cluster(1), world);
    cfg.model = microModel();
    cfg.par = parallel::ParallelConfig::forWorld(world, tp, pp);
    cfg.train.globalBatchSize = dp;
    cfg.warmupIterations = 0;
    cfg.measuredIterations = 1;
    cfg.checkMemory = false;
    cfg.symmetryCollapse = true;
    std::uint64_t aggregate = 0;
    for (auto _ : state) {
        auto r = core::Experiment::run(cfg);
        if (!r.symmetry.collapsed) {
            state.SkipWithError(r.symmetry.reason.c_str());
            return;
        }
        aggregate += r.counters.eventsPopped *
                     static_cast<std::uint64_t>(dp);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(aggregate));
    state.counters["multiplicity"] = static_cast<double>(dp);
    state.counters["peak_rss_kb"] =
        static_cast<double>(benchutil::peakRssKb());
}
BENCHMARK(BM_CollapsedTrainingIteration)
    ->Arg(1024)
    ->Arg(16384)
    ->Arg(65536)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
