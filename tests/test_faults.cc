/**
 * @file
 * Tests for the fault-injection subsystem: deterministic scenario
 * expansion, per-kind degradation effects, runtime graceful
 * degradation (stalls, restart costs), elastic re-mapping, and cause
 * attribution in the telemetry outputs.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/cluster.hh"
#include "core/compare.hh"
#include "core/experiment.hh"
#include "faults/fault_injector.hh"
#include "faults/scenarios.hh"
#include "net/flow_network.hh"
#include "net/topology.hh"
#include "obs/trace_builder.hh"
#include "sim/simulator.hh"

namespace {

using namespace charllm;
using namespace charllm::faults;
using namespace charllm::unit_literals;

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

/** Two-node H100 config: the PP boundary crosses the IB fabric. */
core::ExperimentConfig
h100Config()
{
    core::ExperimentConfig cfg;
    cfg.cluster = core::h100Cluster(2);
    cfg.model = smallModel();
    cfg.par = parallel::ParallelConfig::forWorld(16, 2, 2);
    cfg.train.globalBatchSize = 16;
    cfg.warmupIterations = 1;
    cfg.measuredIterations = 2;
    return cfg;
}

/** The run's kernel spans and fault overlays as Chrome/Perfetto JSON. */
std::string
traceJson(const core::ExperimentResult& r)
{
    obs::TraceBuilder builder;
    builder.addKernels(*r.trace);
    return builder.toJson();
}

// ---- injector unit tests ---------------------------------------------------

struct InjectorFixture : ::testing::Test
{
    InjectorFixture()
        : cluster(core::h100Cluster(1)), topo(cluster.network),
          plat(sim, cluster.gpu, cluster.chassis, cluster.numNodes),
          netw(sim, topo), injector(sim, plat, netw)
    {
    }

    core::ClusterSpec cluster;
    sim::Simulator sim;
    net::Topology topo;
    hw::Platform plat;
    net::FlowNetwork netw;
    FaultInjector injector;
};

TEST_F(InjectorFixture, StragglerDeratesDeviceDuringWindow)
{
    FaultScenario s = scenarios::straggler(1, 0.5, 0.1);
    s.faults[0].durationSec = 0.2; // recover at t = 0.3
    injector.apply(s);

    double during = -1.0, after = -1.0;
    std::string label_during, label_after;
    sim.scheduleAt(sim::toTicks(0.2), [&] {
        during = plat.gpu(1).clockRel().value();
        label_during = injector.activeGpuFault(1);
    });
    sim.scheduleAt(sim::toTicks(0.4), [&] {
        after = plat.gpu(1).clockRel().value();
        label_after = injector.activeGpuFault(1);
    });
    sim.run();

    EXPECT_NEAR(during, 0.5, 1e-9);
    EXPECT_EQ(label_during, "gpu-slowdown");
    EXPECT_NEAR(after, 1.0, 1e-9);
    EXPECT_EQ(label_after, "");
    ASSERT_EQ(injector.log().size(), 1u);
    EXPECT_EQ(injector.log()[0].kind, FaultKind::GpuSlowdown);
}

TEST_F(InjectorFixture, HotInletRaisesInletTemperature)
{
    std::vector<Watts> powers(
        static_cast<std::size_t>(plat.numGpus()), Watts(100.0));
    double before = plat.thermal().inletTemperature(0, powers).value();
    injector.apply(scenarios::hotInlet(0, 14.0_dC, 0.0));
    sim.run();
    EXPECT_NEAR(plat.thermal().inletTemperature(0, powers).value(),
                before + 14.0, 1e-9);
}

TEST_F(InjectorFixture, FlapScheduleIsSeedReproducible)
{
    auto expand = [](std::uint64_t seed) {
        core::ClusterSpec cl = core::h100Cluster(1);
        sim::Simulator s;
        net::Topology topo(cl.network);
        hw::Platform plat(s, cl.gpu, cl.chassis, cl.numNodes);
        net::FlowNetwork netw(s, topo);
        FaultInjector inj(s, plat, netw);
        FaultScenario sc = scenarios::flappingLink(topo.nicOutLink(0),
                                                   0.25, 0.05_s, 1.0_s);
        sc.seed = seed;
        inj.apply(sc);
        return inj.log();
    };
    auto a = expand(42), b = expand(42), c = expand(43);
    ASSERT_GT(a.size(), 5u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].startSec, b[i].startSec);
        EXPECT_DOUBLE_EQ(a[i].endSec, b[i].endSec);
    }
    // A different seed realizes different jitter.
    bool differs = a.size() != c.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].startSec != c[i].startSec;
    EXPECT_TRUE(differs);
}

TEST_F(InjectorFixture, FanFailureScalesResistance)
{
    FaultScenario sc;
    sc.faults = {FaultSpec{FaultKind::FanFailure, 2, 0.0, 0.0, 1.8}};
    injector.apply(sc);
    ASSERT_EQ(injector.log().size(), 1u);
    EXPECT_EQ(injector.log()[0].kind, FaultKind::FanFailure);
    sim.run();
    EXPECT_DOUBLE_EQ(plat.thermal().resistanceScale(2), 1.8);
}

// ---- experiment-level behaviour --------------------------------------------

TEST(FaultExperiment, StragglerSlowsTraining)
{
    auto healthy = core::Experiment::run(h100Config());
    ASSERT_TRUE(healthy.feasible);

    auto cfg = h100Config();
    cfg.faultScenario = scenarios::straggler(3, 0.5);
    auto degraded = core::Experiment::run(cfg);
    ASSERT_TRUE(degraded.feasible);
    // Synchronous training runs at the straggler's pace.
    EXPECT_GT(degraded.avgIterationSeconds,
              healthy.avgIterationSeconds * 1.3);
    ASSERT_EQ(degraded.faultLog.size(), 1u);
    EXPECT_EQ(degraded.faultLog[0].kind, FaultKind::GpuSlowdown);
}

TEST(FaultExperiment, DegradedPodSlowsStepTimeWithAttribution)
{
    auto healthy = core::Experiment::run(h100Config());
    ASSERT_TRUE(healthy.feasible);

    // The acceptance scenario: one hot-inlet GPU plus one flapping IB
    // link, on a run whose pipeline boundary crosses that link.
    auto cfg = h100Config();
    net::Topology topo(cfg.cluster.network);
    cfg.faultScenario = scenarios::degradedPod(topo, 2.0_s);
    cfg.enableSampler = true;
    cfg.enableTrace = true;
    auto degraded = core::Experiment::run(cfg);
    ASSERT_TRUE(degraded.feasible);

    EXPECT_GT(degraded.avgIterationSeconds, healthy.avgIterationSeconds);
    EXPECT_GE(degraded.faultLog.size(), 2u);

    // Cause attribution: the hot-inlet GPU's samples carry the label.
    bool attributed = false;
    for (const auto& s : degraded.series[0])
        attributed |= std::string(s.fault) == "hot-inlet";
    EXPECT_TRUE(attributed);

    // The trace overlays fault spans for both scenario legs.
    ASSERT_TRUE(degraded.trace);
    EXPECT_FALSE(degraded.trace->faultSpans().empty());
    std::string json = traceJson(degraded);
    EXPECT_NE(json.find("\"cat\":\"fault\""), std::string::npos);
    EXPECT_NE(json.find("hot-inlet"), std::string::npos);
    EXPECT_NE(json.find("link-flap"), std::string::npos);
}

TEST(FaultExperiment, SameSeedProducesByteIdenticalOutputs)
{
    auto make = [] {
        auto cfg = h100Config();
        net::Topology topo(cfg.cluster.network);
        cfg.faultScenario = scenarios::degradedPod(topo, 2.0_s);
        cfg.faultScenario.faults.push_back(
            scenarios::eccStorm(5, 0.002_s, 0.05_s, 1.0_s).faults[0]);
        cfg.enableSampler = true;
        cfg.enableTrace = true;
        return core::Experiment::run(cfg);
    };
    auto a = make(), b = make();
    ASSERT_TRUE(a.feasible);
    // Every output, telemetry series and fault tags included.
    EXPECT_EQ(core::compareResults(b, a, core::tolerance("bitwise")).breaches,
              std::vector<std::string>{});
    EXPECT_EQ(traceJson(a), traceJson(b));
    ASSERT_EQ(a.faultLog.size(), b.faultLog.size());
    for (std::size_t i = 0; i < a.faultLog.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.faultLog[i].startSec, b.faultLog[i].startSec);
        EXPECT_DOUBLE_EQ(a.faultLog[i].endSec, b.faultLog[i].endSec);
    }
}

TEST(FaultExperiment, EccStormStallsTraining)
{
    auto healthy = core::Experiment::run(h100Config());
    auto cfg = h100Config();
    // Frequent multi-ms stalls on one device throughout the run.
    cfg.faultScenario = scenarios::eccStorm(0, 0.005_s, 0.02_s, 2.0_s);
    auto degraded = core::Experiment::run(cfg);
    ASSERT_TRUE(degraded.feasible);
    EXPECT_GT(degraded.avgIterationSeconds, healthy.avgIterationSeconds);
    EXPECT_GT(degraded.faultLog.size(), 10u);
}

TEST(FaultExperiment, FailStopPaysRestartCost)
{
    auto healthy = core::Experiment::run(h100Config());
    auto cfg = h100Config();
    cfg.faultScenario = scenarios::failStop(1, 0.2_s, 0.0);
    auto degraded = core::Experiment::run(cfg);
    ASSERT_TRUE(degraded.feasible);
    // The checkpoint/restart pause plus the outage derate dominate.
    EXPECT_GT(degraded.avgIterationSeconds, healthy.avgIterationSeconds);

    // Elastic re-mapping still completes and logs the same fault.
    cfg.elasticRemap = true;
    auto remapped = core::Experiment::run(cfg);
    ASSERT_TRUE(remapped.feasible);
    ASSERT_EQ(remapped.faultLog.size(), 1u);
    EXPECT_EQ(remapped.faultLog[0].kind, FaultKind::GpuFailStop);
}

} // namespace
