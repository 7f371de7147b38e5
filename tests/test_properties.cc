/**
 * @file
 * Property-based tests (parameterized sweeps) over the simulator's
 * invariants: flow-network conservation and fairness, collective cost
 * monotonicity, memory-planner monotonicity, rank-mapper bijections,
 * thermal-model physics, and end-to-end engine invariants across the
 * parallelism design space.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "coll/collective_engine.hh"
#include "common/rng.hh"
#include "hw/calibration.hh"
#include "coll/cost_model.hh"
#include "core/cluster.hh"
#include "core/compare.hh"
#include "core/experiment.hh"
#include "hw/thermal_model.hh"
#include "net/calibration.hh"
#include "net/flow_network.hh"
#include "parallel/memory_planner.hh"
#include "parallel/rank_mapper.hh"
#include "sim/simulator.hh"

namespace {

using namespace charllm;

// ---- flow network properties -----------------------------------------------

struct FlowProperty : ::testing::TestWithParam<int>
{
};

TEST_P(FlowProperty, BytesConservedAndAllFlowsComplete)
{
    // Pseudo-random flow sets of varying size: every byte injected
    // must be accounted on every link of its route, and all flows
    // must complete in finite time.
    int n_flows = GetParam();
    sim::Simulator s;
    net::Topology topo(net::Topology::hgxParams(4));
    net::FlowNetwork netw(s, topo);
    Rng rng(static_cast<std::uint64_t>(n_flows) * 7919);

    double injected_pcie = 0.0;
    int completed = 0;
    for (int i = 0; i < n_flows; ++i) {
        int src = static_cast<int>(rng.below(32));
        int dst = static_cast<int>(rng.below(32));
        if (dst == src)
            dst = (dst + 1) % 32;
        double bytes = 1e6 * (1.0 + rng.uniform() * 50.0);
        if (!topo.sameNode(src, dst))
            injected_pcie += 2.0 * bytes; // src + dst PCIe ports
        netw.transfer(src, dst, Bytes(bytes),
                      [&completed] { ++completed; });
    }
    s.run();
    EXPECT_EQ(completed, n_flows);
    EXPECT_EQ(netw.numActiveFlows(), 0u);

    double counted_pcie = 0.0;
    for (int l = 0; l < static_cast<int>(topo.links().size()); ++l) {
        if (topo.link(l).cls == hw::TrafficClass::Pcie)
            counted_pcie += netw.linkBytes(l).value();
    }
    EXPECT_NEAR(counted_pcie, injected_pcie,
                std::max(1.0, injected_pcie * 1e-6));
}

TEST_P(FlowProperty, RatesNeverExceedLinkCapacity)
{
    int n_flows = GetParam();
    sim::Simulator s;
    net::Topology topo(net::Topology::hgxParams(2));
    net::FlowNetwork netw(s, topo);
    Rng rng(static_cast<std::uint64_t>(n_flows) * 104729);
    for (int i = 0; i < n_flows; ++i) {
        int src = static_cast<int>(rng.below(16));
        int dst = (src + 1 + static_cast<int>(rng.below(15))) % 16;
        netw.transfer(src, dst, Bytes(5e7 + rng.uniform() * 5e8),
                      [] {});
    }
    // Probe utilization while flows are in flight.
    bool violated = false;
    s.schedule(sim::toTicks(0.005), [&] {
        for (int l = 0; l < static_cast<int>(topo.links().size());
             ++l) {
            if (netw.linkUtilization(l) > 1.0 + 1e-6)
                violated = true;
        }
    });
    s.run();
    EXPECT_FALSE(violated);
}

INSTANTIATE_TEST_SUITE_P(FlowSweep, FlowProperty,
                         ::testing::Values(1, 4, 16, 64, 200));

// ---- collective cost properties ---------------------------------------------

struct CollectiveCostProperty
    : ::testing::TestWithParam<std::tuple<int, double>>
{
};

TEST_P(CollectiveCostProperty, CostsMonotonicAndPositive)
{
    auto [n, raw_bytes] = GetParam();
    Bytes bytes(raw_bytes);
    BytesPerSec bw(100e9);
    Seconds lat(1e-5);
    double ar = coll::ringAllReduceSeconds(n, bytes, bw, lat).value();
    if (n > 1) {
        EXPECT_GT(ar, 0.0);
        // More data never gets cheaper.
        EXPECT_GE(
            coll::ringAllReduceSeconds(n, bytes * 2.0, bw, lat).value(),
            ar);
        // More bandwidth never hurts.
        EXPECT_LE(
            coll::ringAllReduceSeconds(n, bytes, bw * 2.0, lat).value(),
            ar);
    } else {
        EXPECT_DOUBLE_EQ(ar, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    CostSweep, CollectiveCostProperty,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16, 64),
                       ::testing::Values(1e4, 1e7, 1e10)));

// ---- memory planner properties -----------------------------------------------

struct MemoryProperty
    : ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(MemoryProperty, FootprintMonotonicInKnobs)
{
    auto [tp, pp, mb] = GetParam();
    auto cfg = model::gpt3_30b();
    auto par = parallel::ParallelConfig::forWorld(tp * pp, tp, pp);
    parallel::MemoryPlanner planner(cfg, par);
    parallel::MemoryOptions opts;
    opts.microbatchSize = mb;
    opts.microbatchesInFlight = pp;
    auto mem = planner.worstStage(opts);
    EXPECT_GT(mem.total(), 0.0);

    // Larger microbatch never shrinks activations.
    auto opts2 = opts;
    opts2.microbatchSize = mb * 2;
    EXPECT_GE(planner.worstStage(opts2).activations,
              mem.activations);

    // Recomputation never grows activations.
    auto opts3 = opts;
    opts3.actRecompute = true;
    EXPECT_LE(planner.worstStage(opts3).activations,
              mem.activations);

    // Inference never exceeds training.
    auto opts4 = opts;
    opts4.inference = true;
    EXPECT_LE(planner.worstStage(opts4).total(), mem.total());

    // Stage layer counts always cover the model.
    int layers = 0;
    for (int s = 0; s < pp; ++s)
        layers += planner.layersOnStage(s);
    EXPECT_EQ(layers, cfg.numLayers);
}

// Every pp in the grid is within GPT3-30B's 48 layers.
INSTANTIATE_TEST_SUITE_P(
    MemorySweep, MemoryProperty,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1, 2, 4, 8, 16),
                       ::testing::Values(1, 4)));

// ---- rank mapper properties -----------------------------------------------------

struct MapperProperty
    : ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(MapperProperty, GroupsPartitionTheWorld)
{
    auto [tp, pp, dp, ep] = GetParam();
    parallel::ParallelConfig cfg;
    cfg.tp = tp;
    cfg.pp = pp;
    cfg.dp = dp;
    cfg.ep = ep;
    parallel::RankMapper map(cfg);
    int world = cfg.worldSize();

    // Each group family partitions all devices.
    for (auto family : {0, 1, 2}) {
        std::vector<int> seen(static_cast<std::size_t>(world), 0);
        for (int r = 0; r < world; ++r) {
            std::vector<int> group;
            switch (family) {
              case 0: group = map.tpGroupDevices(r); break;
              case 1: group = map.dpGroupDevices(r); break;
              default: group = map.epGroupDevices(r); break;
            }
            // The rank's own device must be in its group.
            EXPECT_NE(std::find(group.begin(), group.end(),
                                map.deviceOf(r)),
                      group.end());
            for (int d : group)
                ++seen[static_cast<std::size_t>(d)];
        }
        // Every device seen exactly group-size times.
        int expected = family == 0 ? tp : family == 1 ? dp : ep;
        for (int d = 0; d < world; ++d)
            EXPECT_EQ(seen[static_cast<std::size_t>(d)], expected);
    }

    // Device mapping is a bijection.
    std::vector<int> devs;
    for (int r = 0; r < world; ++r)
        devs.push_back(map.deviceOf(r));
    std::sort(devs.begin(), devs.end());
    for (int d = 0; d < world; ++d)
        EXPECT_EQ(devs[static_cast<std::size_t>(d)], d);
}

/** (tp, pp, dp, ep) grid; expert groups must divide the DP width. */
std::vector<std::tuple<int, int, int, int>>
mapperTuples()
{
    std::vector<std::tuple<int, int, int, int>> out;
    for (int tp : {1, 2, 4})
        for (int pp : {1, 2, 4})
            for (int dp : {1, 2, 8})
                for (int ep : {1, 2, 8})
                    if (dp % ep == 0)
                        out.emplace_back(tp, pp, dp, ep);
    return out;
}

INSTANTIATE_TEST_SUITE_P(MapperSweep, MapperProperty,
                         ::testing::ValuesIn(mapperTuples()));

// ---- thermal model properties -----------------------------------------------------

struct ThermalProperty : ::testing::TestWithParam<double>
{
};

TEST_P(ThermalProperty, SteadyStateMonotonicInPower)
{
    double watts = GetParam();
    hw::ThermalModel tm(hw::hgxLayout(), 1);
    std::vector<Watts> low(8, Watts(watts)),
        high(8, Watts(watts * 1.5));
    for (int i = 0; i < 8; ++i) {
        EXPECT_GT(tm.steadyState(i, high).value(),
                  tm.steadyState(i, low).value());
        // Junction always above inlet, inlet never below room.
        EXPECT_GE(tm.inletTemperature(i, low).value(),
                  hw::calib::kRoomTempC - 1e-9);
        EXPECT_GE(tm.steadyState(i, low).value(),
                  tm.inletTemperature(i, low).value());
    }
}

TEST_P(ThermalProperty, IntegrationConvergesToSteadyState)
{
    double watts = GetParam();
    hw::ThermalModel tm(hw::hgxLayout(), 1);
    std::vector<Watts> powers(8, Watts(watts));
    for (int step = 0; step < 40000; ++step)
        tm.step(Seconds(0.002), powers);
    for (int i = 0; i < 8; ++i)
        EXPECT_NEAR(tm.temperature(i).value(),
                    tm.steadyState(i, powers).value(), 0.5);
}

INSTANTIATE_TEST_SUITE_P(ThermalSweep, ThermalProperty,
                         ::testing::Values(50.0, 200.0, 450.0, 700.0));

// ---- end-to-end engine invariants ---------------------------------------------------

struct EngineProperty
    : ::testing::TestWithParam<std::tuple<int, int, bool, bool>>
{
    static model::TransformerConfig
    tiny()
    {
        model::TransformerConfig c;
        c.name = "PropTiny";
        c.numLayers = 8;
        c.hiddenSize = 1536;
        c.numHeads = 12;
        c.numQueryGroups = 12;
        c.ffnHiddenSize = 6144;
        c.vocabSize = 16000;
        c.seqLength = 512;
        return c;
    }
};

TEST_P(EngineProperty, InvariantsHoldAcrossDesignSpace)
{
    auto [tp, pp, act, cc] = GetParam();
    core::ExperimentConfig cfg;
    cfg.cluster = core::h200Cluster(1);
    cfg.model = tiny();
    cfg.par = parallel::ParallelConfig::forWorld(8, tp, pp);
    cfg.train.globalBatchSize = 16;
    cfg.train.actRecompute = act;
    cfg.train.ccOverlap = cc;
    cfg.warmupIterations = 1;
    cfg.measuredIterations = 2;
    auto r = core::Experiment::run(cfg);
    ASSERT_TRUE(r.feasible) << cfg.label();

    // Time, throughput, and energy are positive and consistent.
    EXPECT_GT(r.avgIterationSeconds, 0.0);
    EXPECT_GT(r.tokensPerSecond, 0.0);
    EXPECT_GT(r.totalEnergyJ, 0.0);
    // Energy bounded by worst-case (peak cap x GPUs x time).
    double bound = hw::calib::kPeakPowerCap *
                   cfg.cluster.gpu.tdpWatts.value() * 8.0 * 2.0 *
                   r.avgIterationSeconds * 1.05;
    EXPECT_LT(r.totalEnergyJ, bound);

    // Per-rank kernel time never exceeds wall time per iteration
    // (single device can't be busy longer than the iteration, modulo
    // concurrent send kernels counted on the async stream).
    for (const auto& g : r.gpus) {
        EXPECT_LE(g.breakdown.computeTotal(),
                  r.avgIterationSeconds * 1.02);
    }

    // Physics stay in range.
    EXPECT_GE(r.avgTempC, hw::calib::kRoomTempC - 1.0);
    EXPECT_LT(r.peakTempC, cfg.cluster.gpu.shutdownTempC.value());
    EXPECT_GE(r.avgPowerW, cfg.cluster.gpu.idleWatts.value() * 0.5);
    EXPECT_LE(r.peakPowerW,
              hw::calib::kPeakPowerCap *
                      cfg.cluster.gpu.tdpWatts.value() +
                  1.0);
    EXPECT_GE(r.throttleRatio, 0.0);
    EXPECT_LE(r.throttleRatio, 1.0);

    // Determinism: every output, bit for bit.
    EXPECT_EQ(core::compareResults(core::Experiment::run(cfg), r,
                                   core::tolerance("bitwise"))
                  .breaches,
              std::vector<std::string>{});
}

/** (tp, pp, act, cc) grid; tp*pp fits the 8-GPU test cluster. */
std::vector<std::tuple<int, int, bool, bool>>
engineTuples()
{
    std::vector<std::tuple<int, int, bool, bool>> out;
    for (int tp : {1, 2, 4})
        for (int pp : {1, 2, 4})
            for (bool act : {false, true})
                for (bool cc : {false, true})
                    if (tp * pp <= 8)
                        out.emplace_back(tp, pp, act, cc);
    return out;
}

INSTANTIATE_TEST_SUITE_P(DesignSpace, EngineProperty,
                         ::testing::ValuesIn(engineTuples()));

// ---- MoE engine sweep ------------------------------------------------------------

struct MoeProperty : ::testing::TestWithParam<int>
{
};

TEST_P(MoeProperty, ExpertParallelWidthsAllRun)
{
    int ep = GetParam();
    model::TransformerConfig c = EngineProperty::tiny();
    c.name = "PropMoE";
    c.numExperts = 8;
    c.topK = 2;
    core::ExperimentConfig cfg;
    cfg.cluster = core::h200Cluster(1);
    cfg.model = c;
    cfg.par = parallel::ParallelConfig::forWorld(8, 1, 1, ep);
    cfg.train.globalBatchSize = 16;
    cfg.warmupIterations = 1;
    cfg.measuredIterations = 1;
    auto r = core::Experiment::run(cfg);
    ASSERT_TRUE(r.feasible);
    EXPECT_GT(r.tokensPerSecond, 0.0);
    if (ep > 1)
        EXPECT_GT(r.meanBreakdown[hw::KernelClass::AllToAll], 0.0);
    else
        EXPECT_DOUBLE_EQ(r.meanBreakdown[hw::KernelClass::AllToAll],
                         0.0);
}

INSTANTIATE_TEST_SUITE_P(EpSweep, MoeProperty,
                         ::testing::Values(1, 2, 4, 8));

} // namespace
