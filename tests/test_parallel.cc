/**
 * @file
 * Tests for parallel configuration, the Megatron-order rank mapping
 * (TP -> EP -> DP -> PP), group locality properties the paper's
 * findings depend on, and the memory planner.
 */

#include <gtest/gtest.h>

#include "model/transformer_config.hh"
#include "parallel/memory_planner.hh"
#include "parallel/parallel_config.hh"
#include "parallel/rank_mapper.hh"

namespace {

using namespace charllm;
using namespace charllm::parallel;

/** Fraction of a group's device pairs that live on the same node. */
double
nodeLocality(const std::vector<int>& devices, int gpus_per_node)
{
    if (devices.size() < 2)
        return 1.0;
    std::size_t same = 0, total = 0;
    for (std::size_t i = 0; i < devices.size(); ++i) {
        for (std::size_t j = i + 1; j < devices.size(); ++j) {
            ++total;
            if (devices[i] / gpus_per_node == devices[j] / gpus_per_node)
                ++same;
        }
    }
    return static_cast<double>(same) / static_cast<double>(total);
}

// ---- config -----------------------------------------------------------------

TEST(ParallelConfig, Labels)
{
    EXPECT_EQ(ParallelConfig::forWorld(32, 8, 4).label(), "TP8-PP4");
    EXPECT_EQ(ParallelConfig::forWorld(32, 4, 4).label(),
              "TP4-PP4-DP2");
    EXPECT_EQ(ParallelConfig::forWorld(32, 1, 4, 8).label(),
              "EP8-TP1-PP4-DP8");
    EXPECT_EQ(ParallelConfig::forWorld(32, 8, 1, 1, true).label(),
              "TP8-FSDP4");
}

TEST(ParallelConfig, WorldSizeDerivation)
{
    auto c = ParallelConfig::forWorld(64, 2, 16);
    EXPECT_EQ(c.dp, 2);
    EXPECT_EQ(c.worldSize(), 64);
}

// ---- rank mapping ------------------------------------------------------------

TEST(RankMapper, TpVariesFastest)
{
    RankMapper m(ParallelConfig::forWorld(32, 4, 4));
    // Ranks 0..3 share (dp=0, pp=0) and differ in tp only.
    for (int r = 0; r < 4; ++r) {
        auto c = m.coordsOf(r);
        EXPECT_EQ(c.tpIdx, r);
        EXPECT_EQ(c.dpIdx, 0);
        EXPECT_EQ(c.ppIdx, 0);
    }
    // Pipeline stage is the slowest dimension.
    EXPECT_EQ(m.coordsOf(8).ppIdx, 1);
    EXPECT_EQ(m.coordsOf(31).ppIdx, 3);
}

TEST(RankMapper, CoordsRoundTrip)
{
    RankMapper m(ParallelConfig::forWorld(64, 2, 4, 2));
    for (int r = 0; r < 64; ++r)
        EXPECT_EQ(m.rankFromCoords(m.coordsOf(r)), r);
}

TEST(RankMapper, TpGroupIsConsecutiveAndIntraNode)
{
    // TP8 on 8-GPU nodes: every TP group is exactly one node.
    RankMapper m(ParallelConfig::forWorld(32, 8, 4));
    for (int r = 0; r < 32; r += 8) {
        auto g = m.tpGroupDevices(r);
        ASSERT_EQ(g.size(), 8u);
        EXPECT_EQ(nodeLocality(g, 8), 1.0);
    }
}

TEST(RankMapper, Ep8Tp1StaysIntraNode)
{
    // The paper's key locality result: EP8-TP1-PP4 confines expert
    // all-to-all within nodes.
    RankMapper m(ParallelConfig::forWorld(32, 1, 4, 8));
    for (int r = 0; r < 32; ++r) {
        auto g = m.epGroupDevices(r);
        ASSERT_EQ(g.size(), 8u);
        EXPECT_EQ(nodeLocality(g, 8), 1.0)
            << "rank " << r;
    }
}

TEST(RankMapper, Ep8Tp4SpansNodes)
{
    // With TP4, the EP8 group strides across 32 consecutive ranks and
    // must leave the node (paper Sec. 4.2).
    RankMapper m(ParallelConfig::forWorld(32, 4, 1, 8));
    auto g = m.epGroupDevices(0);
    ASSERT_EQ(g.size(), 8u);
    EXPECT_LT(nodeLocality(g, 8), 0.5);
}

TEST(RankMapper, PpNeighborsCrossNodesForTp8)
{
    RankMapper m(ParallelConfig::forWorld(32, 8, 4));
    // Stage boundary from rank 0 (node 0) to its pp-peer on node 1.
    RankCoords next = m.coordsOf(0);
    ++next.ppIdx;
    EXPECT_EQ(m.deviceOf(m.rankFromCoords(next)) / 8, 1);
}

TEST(RankMapper, DpGroupStridesByTp)
{
    RankMapper m(ParallelConfig::forWorld(32, 4, 4));
    auto g = m.dpGroupDevices(0);
    ASSERT_EQ(g.size(), 2u);
    EXPECT_EQ(g[0], 0);
    EXPECT_EQ(g[1], 4);
}

TEST(RankMapper, DevicePermutationRemaps)
{
    RankMapper m(ParallelConfig::forWorld(8, 4, 2));
    std::vector<int> perm = {7, 6, 5, 4, 3, 2, 1, 0};
    m.setDevicePermutation(perm);
    EXPECT_EQ(m.deviceOf(0), 7);
    EXPECT_EQ(m.rankOf(7), 0);
    auto g = m.tpGroupDevices(0);
    EXPECT_EQ(g, (std::vector<int>{7, 6, 5, 4}));
}

TEST(RankMapper, NodeLocalityMetric)
{
    EXPECT_DOUBLE_EQ(nodeLocality({0, 1, 2, 3}, 8), 1.0);
    EXPECT_DOUBLE_EQ(nodeLocality({0, 8}, 8), 0.0);
    EXPECT_DOUBLE_EQ(nodeLocality({5}, 8), 1.0);
}

// ---- memory planner -----------------------------------------------------------

TEST(MemoryPlanner, LayerDistributionCoversModel)
{
    MemoryPlanner p(model::gpt3_175b(),
                    ParallelConfig::forWorld(32, 8, 4));
    int total = 0;
    for (int s = 0; s < 4; ++s)
        total += p.layersOnStage(s);
    EXPECT_EQ(total, 96);
}

TEST(MemoryPlanner, ParamsShrinkWithTp)
{
    auto cfg = model::gpt3_175b();
    MemoryPlanner p8(cfg, ParallelConfig::forWorld(8, 8, 1));
    MemoryPlanner p2(cfg, ParallelConfig::forWorld(2, 2, 1));
    EXPECT_NEAR(p8.paramsPerGpu(0) * 4.0, p2.paramsPerGpu(0),
                p2.paramsPerGpu(0) * 0.02);
}

TEST(MemoryPlanner, Zero1ShardsOptimizer)
{
    auto cfg = model::llama3_70b();
    auto par = ParallelConfig::forWorld(64, 4, 4); // dp = 4
    MemoryPlanner p(cfg, par);
    MemoryOptions base;
    base.microbatchSize = 1;
    MemoryOptions z = base;
    z.zero1 = true;
    auto mem = p.worstStage(base);
    auto memz = p.worstStage(z);
    EXPECT_NEAR(memz.optimizer, mem.optimizer / 4.0,
                mem.optimizer * 0.01);
    EXPECT_DOUBLE_EQ(memz.weights, mem.weights);
}

TEST(MemoryPlanner, RecomputeShrinksActivations)
{
    auto cfg = model::gpt3_175b();
    MemoryPlanner p(cfg, ParallelConfig::forWorld(32, 8, 4));
    MemoryOptions opts;
    opts.microbatchSize = 2;
    opts.microbatchesInFlight = 4;
    auto full = p.worstStage(opts);
    opts.actRecompute = true;
    auto ckpt = p.worstStage(opts);
    EXPECT_LT(ckpt.activations * 5.0, full.activations);
}

TEST(MemoryPlanner, Gpt175bNeedsModelParallelism)
{
    // 175B on one 141 GB GPU can never fit (weights alone ~350 GB).
    auto cfg = model::gpt3_175b();
    MemoryPlanner p(cfg, ParallelConfig::forWorld(1, 1, 1));
    MemoryOptions opts;
    EXPECT_FALSE(p.fits(Bytes(141e9), opts));
}

TEST(MemoryPlanner, RecomputeUnlocksMixtralEp8OnH200)
{
    // Paper Sec. 4.3: activation recomputation unlocks EP8-TP1-PP4
    // for Mixtral-8x22B on the H200 cluster.
    auto cfg = model::mixtral_8x22b();
    auto par = ParallelConfig::forWorld(32, 1, 4, 8);
    MemoryPlanner p(cfg, par);
    MemoryOptions opts;
    opts.microbatchSize = 1;
    opts.microbatchesInFlight = 4;
    EXPECT_FALSE(p.fits(Bytes(141e9), opts));
    opts.actRecompute = true;
    EXPECT_TRUE(p.fits(Bytes(141e9), opts));
}

TEST(MemoryPlanner, FsdpShardsEverything)
{
    auto cfg = model::llama3_70b();
    auto fsdp = ParallelConfig::forWorld(32, 8, 1, 1, true);
    auto plain = ParallelConfig::forWorld(32, 8, 1, 1, false);
    MemoryOptions opts;
    auto m_fsdp = MemoryPlanner(cfg, fsdp).worstStage(opts);
    auto m_plain = MemoryPlanner(cfg, plain).worstStage(opts);
    EXPECT_LT(m_fsdp.weights, m_plain.weights);
    EXPECT_LT(m_fsdp.optimizer, m_plain.optimizer);
}

TEST(MemoryPlanner, LargerMicrobatchGrowsActivations)
{
    auto cfg = model::gpt3_175b();
    MemoryPlanner p(cfg, ParallelConfig::forWorld(32, 2, 16));
    MemoryOptions a, b;
    a.microbatchSize = 1;
    b.microbatchSize = 4;
    EXPECT_GT(p.worstStage(b).activations,
              3.5 * p.worstStage(a).activations);
}

} // namespace
