/**
 * @file
 * Rank-symmetry collapse tests (DESIGN.md §12): the fold arithmetic,
 * the analyzer's exact refusal conditions, and the load-bearing
 * guarantee — a collapsed run is bitwise identical to the full run
 * on every reported metric, telemetry sample, phase split, and
 * per-class energy, at dp in {2, 4, 8}, with and without
 * cc-overlap/recompute, partitioned or serial dispatch.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/cluster.hh"
#include "core/compare.hh"
#include "core/experiment.hh"
#include "faults/scenarios.hh"
#include "net/flow_network.hh"
#include "net/topology.hh"
#include "obs/phase.hh"
#include "scale/symmetry.hh"
#include "sim/simulator.hh"

namespace {

using namespace charllm;
using namespace charllm::core;

// ---- fold arithmetic ---------------------------------------------------------

TEST(SymmetryFold, MappingsRoundTrip)
{
    scale::SymmetryFold f;
    f.tp = 4;
    f.dp = 3;
    f.pp = 2;
    f.gpusPerNode = 4;
    EXPECT_EQ(f.logicalWorld(), 24);
    EXPECT_EQ(f.physWorld(), 8);
    EXPECT_EQ(f.physNodes(), 2);
    EXPECT_EQ(f.multiplicity(), 3);
    int instantiated = 0;
    for (int d = 0; d < f.logicalWorld(); ++d) {
        if (!f.instantiated(d))
            continue;
        ++instantiated;
        int s = f.repOf(d);
        ASSERT_GE(s, 0);
        ASSERT_LT(s, f.physWorld());
        // The dense physical id maps back to exactly this device.
        EXPECT_EQ(f.logicalOf(s), d);
        EXPECT_EQ(f.imageOf(s, 0), d);
    }
    EXPECT_EQ(instantiated, f.physWorld());
    // Every logical device is the image of its representative under
    // its own replica index, and images partition the logical world.
    std::vector<int> seen(static_cast<std::size_t>(f.logicalWorld()));
    for (int s = 0; s < f.physWorld(); ++s)
        for (int k = 0; k < f.dp; ++k) {
            int d = f.imageOf(s, k);
            ASSERT_GE(d, 0);
            ASSERT_LT(d, f.logicalWorld());
            EXPECT_EQ(f.repOf(d), s);
            ++seen[static_cast<std::size_t>(d)];
        }
    for (int count : seen)
        EXPECT_EQ(count, 1);
}

TEST(SymmetryFold, NodeRelationPreserved)
{
    scale::SymmetryFold f;
    f.tp = 8;
    f.dp = 4;
    f.pp = 2;
    f.gpusPerNode = 8;
    // Instantiated logical pairs land on the same physical node iff
    // they shared a logical node (TP stays intra-node, PP stays
    // inter-node) — the property that keeps thermal state exact.
    auto logicalNode = [&](int d) { return d / f.gpusPerNode; };
    auto physNode = [&](int s) { return s / f.gpusPerNode; };
    for (int a = 0; a < f.logicalWorld(); ++a) {
        if (!f.instantiated(a))
            continue;
        for (int b = 0; b < f.logicalWorld(); ++b) {
            if (!f.instantiated(b))
                continue;
            EXPECT_EQ(logicalNode(a) == logicalNode(b),
                      physNode(f.repOf(a)) == physNode(f.repOf(b)))
                << "a=" << a << " b=" << b;
        }
    }
}

// ---- analyzer refusal conditions ---------------------------------------------

scale::SymmetryAnalyzer::Input
symmetricInput()
{
    scale::SymmetryAnalyzer::Input in;
    in.tp = 8;
    in.dp = 4;
    in.pp = 2;
    in.ep = 1;
    in.gpusPerNode = 8;
    in.requested = true;
    return in;
}

TEST(SymmetryAnalyzer, AcceptsNodeAlignedConfig)
{
    scale::SymmetryFold fold;
    auto d = scale::SymmetryAnalyzer::analyze(symmetricInput(), &fold);
    EXPECT_TRUE(d.requested);
    EXPECT_TRUE(d.collapsed);
    EXPECT_TRUE(d.reason.empty());
    EXPECT_EQ(d.logicalWorld, 64);
    EXPECT_EQ(d.physicalWorld, 16);
    EXPECT_EQ(d.multiplicity, 4);
    EXPECT_EQ(fold.dp, 4);
}

TEST(SymmetryAnalyzer, NotRequestedIsNotCollapsed)
{
    auto in = symmetricInput();
    in.requested = false;
    auto d = scale::SymmetryAnalyzer::analyze(in, nullptr);
    EXPECT_FALSE(d.requested);
    EXPECT_FALSE(d.collapsed);
    EXPECT_TRUE(d.reason.empty());
    EXPECT_EQ(d.physicalWorld, d.logicalWorld);
}

TEST(SymmetryAnalyzer, RefusesEachAsymmetry)
{
    struct Case
    {
        const char* expect;
        void (*mutate)(scale::SymmetryAnalyzer::Input&);
    };
    const Case cases[] = {
        {"dp < 2", [](scale::SymmetryAnalyzer::Input& in) { in.dp = 1; }},
        {"expert parallelism",
         [](scale::SymmetryAnalyzer::Input& in) { in.ep = 2; }},
        {"MoE", [](scale::SymmetryAnalyzer::Input& in) { in.moe = true; }},
        {"fault injection",
         [](scale::SymmetryAnalyzer::Input& in) { in.faults = true; }},
        {"resilience",
         [](scale::SymmetryAnalyzer::Input& in) { in.resilience = true; }},
        {"power caps",
         [](scale::SymmetryAnalyzer::Input& in) { in.powerCaps = true; }},
        {"device permutation",
         [](scale::SymmetryAnalyzer::Input& in) {
             in.devicePermutation = true;
         }},
        {"not node-aligned",
         [](scale::SymmetryAnalyzer::Input& in) { in.tp = 4; }},
    };
    for (const Case& c : cases) {
        auto in = symmetricInput();
        c.mutate(in);
        auto d = scale::SymmetryAnalyzer::analyze(in, nullptr);
        EXPECT_FALSE(d.collapsed) << c.expect;
        EXPECT_NE(d.reason.find(c.expect), std::string::npos)
            << "reason was: " << d.reason;
        // Refusal means full instantiation.
        EXPECT_EQ(d.physicalWorld, d.logicalWorld) << c.expect;
    }
}

// ---- collapsed vs full: bitwise equality -------------------------------------

model::TransformerConfig
tinyModel()
{
    model::TransformerConfig c;
    c.name = "Tiny-1B";
    c.numLayers = 8;
    c.hiddenSize = 2048;
    c.numHeads = 16;
    c.numQueryGroups = 16;
    c.ffnHiddenSize = 4 * 2048;
    c.vocabSize = 32000;
    c.seqLength = 1024;
    return c;
}

/** One-GPU-per-node cluster: any tp is node-aligned. */
ExperimentConfig
foldableConfig(int tp, int pp, int dp)
{
    ExperimentConfig cfg;
    int world = tp * pp * dp;
    cfg.cluster = oneGpuPerNodeCluster(h200Cluster(1), world);
    cfg.model = tinyModel();
    cfg.par = parallel::ParallelConfig::forWorld(world, tp, pp);
    cfg.train.globalBatchSize = 4 * dp;
    cfg.warmupIterations = 1;
    cfg.measuredIterations = 2;
    cfg.enableSampler = true;
    cfg.enableTrace = true;
    cfg.checkMemory = false;
    return cfg;
}

/** @p fast (collapsed or partitioned) against the @p full reference:
 *  every output bit for bit, plus the phase attribution over the
 *  expanded trace, which compareResults does not cover. */
void
expectSameRun(const ExperimentResult& full, const ExperimentResult& fast)
{
    ASSERT_TRUE(full.feasible);
    EXPECT_EQ(compareResults(fast, full, tolerance("bitwise")).breaches,
              std::vector<std::string>{});

    // Phase attribution (compute / exposed-comm / bubble / idle splits
    // with integrated energy) over the expanded trace.
    ASSERT_NE(full.trace, nullptr);
    ASSERT_NE(fast.trace, nullptr);
    auto pa = obs::attributePhases(*full.trace, full.series);
    auto pb = obs::attributePhases(*fast.trace, fast.series);
    ASSERT_EQ(pa.gpus.size(), pb.gpus.size());
    for (std::size_t g = 0; g < pa.gpus.size(); ++g)
        for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
            EXPECT_EQ(pa.gpus[g].phases[p].seconds,
                      pb.gpus[g].phases[p].seconds)
                << "gpu " << g << " phase " << p;
            EXPECT_EQ(pa.gpus[g].phases[p].energyJ,
                      pb.gpus[g].phases[p].energyJ)
                << "gpu " << g << " phase " << p;
        }
}

class CollapseBitwise : public ::testing::TestWithParam<int>
{
};

TEST_P(CollapseBitwise, MatchesFullRun)
{
    int dp = GetParam();
    auto cfg = foldableConfig(2, 2, dp);
    auto full = Experiment::run(cfg);
    cfg.symmetryCollapse = true;
    auto coll = Experiment::run(cfg);
    ASSERT_TRUE(coll.symmetry.collapsed) << coll.symmetry.reason;
    EXPECT_EQ(coll.symmetry.multiplicity, dp);
    EXPECT_EQ(coll.symmetry.physicalWorld, 4);
    EXPECT_EQ(coll.symmetry.logicalWorld, 4 * dp);
    EXPECT_FALSE(full.symmetry.requested);
    expectSameRun(full, coll);
}

INSTANTIATE_TEST_SUITE_P(DpSweep, CollapseBitwise,
                         ::testing::Values(2, 4, 8));

TEST(CollapseBitwise, WithCcOverlap)
{
    auto cfg = foldableConfig(2, 2, 4);
    cfg.train.ccOverlap = true;
    auto full = Experiment::run(cfg);
    cfg.symmetryCollapse = true;
    auto coll = Experiment::run(cfg);
    ASSERT_TRUE(coll.symmetry.collapsed) << coll.symmetry.reason;
    expectSameRun(full, coll);
}

TEST(CollapseBitwise, WithActRecompute)
{
    auto cfg = foldableConfig(2, 2, 4);
    cfg.train.actRecompute = true;
    auto full = Experiment::run(cfg);
    cfg.symmetryCollapse = true;
    auto coll = Experiment::run(cfg);
    ASSERT_TRUE(coll.symmetry.collapsed) << coll.symmetry.reason;
    expectSameRun(full, coll);
}

TEST(CollapseBitwise, MultiGpuNodesNodeAlignedTp)
{
    // tp spans whole 8-GPU nodes: tp=8, pp=2, dp=2 on 4 H200 nodes.
    ExperimentConfig cfg;
    cfg.cluster = h200Cluster(4);
    cfg.model = tinyModel();
    cfg.par = parallel::ParallelConfig::forWorld(32, 8, 2);
    cfg.train.globalBatchSize = 8;
    cfg.warmupIterations = 1;
    cfg.measuredIterations = 2;
    cfg.enableSampler = true;
    cfg.enableTrace = true;
    cfg.checkMemory = false;
    auto full = Experiment::run(cfg);
    cfg.symmetryCollapse = true;
    auto coll = Experiment::run(cfg);
    ASSERT_TRUE(coll.symmetry.collapsed) << coll.symmetry.reason;
    EXPECT_EQ(coll.symmetry.physicalWorld, 16);
    expectSameRun(full, coll);
}

TEST(CollapseBitwise, SerialDispatchMatchesPartitioned)
{
    auto cfg = foldableConfig(2, 2, 4);
    cfg.symmetryCollapse = true;
    cfg.partitionedDispatch = false;
    auto serial = Experiment::run(cfg);
    cfg.partitionedDispatch = true;
    auto part = Experiment::run(cfg);
    ASSERT_TRUE(serial.symmetry.collapsed);
    ASSERT_TRUE(part.symmetry.collapsed);
    EXPECT_EQ(serial.symmetry.domains, 1);
    EXPECT_EQ(part.symmetry.domains, 1 + 4);
    expectSameRun(serial, part);
}

// ---- validity guard: auto-fallback with a recorded reason --------------------

TEST(CollapseGuard, MoeFallsBackAndRecordsReason)
{
    auto cfg = foldableConfig(2, 2, 4);
    cfg.model.numExperts = 8;
    cfg.model.topK = 2;
    auto base = Experiment::run(cfg);
    cfg.symmetryCollapse = true;
    auto r = Experiment::run(cfg);
    EXPECT_TRUE(r.symmetry.requested);
    EXPECT_FALSE(r.symmetry.collapsed);
    EXPECT_NE(r.symmetry.reason.find("MoE"), std::string::npos);
    // Fallback is a full-fidelity run, not a degraded one.
    EXPECT_EQ(compareResults(r, base, tolerance("bitwise")).breaches,
              std::vector<std::string>{});
}

TEST(CollapseGuard, FaultScenarioFallsBack)
{
    auto cfg = foldableConfig(2, 2, 2);
    cfg.faultScenario = faults::scenarios::straggler(0, 0.5);
    cfg.symmetryCollapse = true;
    auto r = Experiment::run(cfg);
    EXPECT_FALSE(r.symmetry.collapsed);
    EXPECT_NE(r.symmetry.reason.find("fault"), std::string::npos);
    ASSERT_TRUE(r.feasible);
    EXPECT_GT(r.avgIterationSeconds, 0.0);
}

// ---- weight conservation ------------------------------------------------------

TEST(WeightedRouteDeath, RefusesNonPositiveWeight)
{
    sim::Simulator simulator;
    net::Topology topology(net::Topology::hgxParams(2));
    net::FlowNetwork network(simulator, topology);
    EXPECT_DEATH(network.internRoute({topology.pcieOutLink(0)}, {0}),
                 "weight conservation");
}

} // namespace
