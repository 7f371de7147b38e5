/**
 * @file
 * Tests for collective algorithms: wire-volume accounting, locality
 * effects (intra- vs inter-node groups), chunking penalties, and
 * agreement with the analytic cost models.
 */

#include <gtest/gtest.h>

#include "coll/collective_engine.hh"
#include "coll/cost_model.hh"
#include "net/calibration.hh"
#include "sim/simulator.hh"

namespace {

using namespace charllm;
using namespace charllm::coll;

struct CollFixture : ::testing::Test
{
    sim::Simulator sim;

    double
    runCollective(net::FlowNetwork& netw, CollectiveKind kind,
                  std::vector<int> ranks, double bytes,
                  bool chunked = true)
    {
        CollectiveEngine eng(sim, netw);
        double done = -1.0;
        CollectiveRequest req;
        req.kind = kind;
        req.ranks = std::move(ranks);
        req.bytes = Bytes(bytes);
        req.chunked = chunked;
        eng.run(req, [&] { done = sim.nowSeconds(); });
        sim.run();
        return done;
    }
};

// ---- cost model -------------------------------------------------------------

TEST(CostModel, RingAllReduceFactor)
{
    // Classic 2(n-1)/n wire volume: for large n the bandwidth term
    // approaches 2*bytes/bw.
    double t8 = ringAllReduceSeconds(8, Bytes(1e9), BytesPerSec(1e9),
                                     Seconds(0.0))
                    .value();
    EXPECT_NEAR(t8, 2.0 * (7.0 / 8.0), 1e-9);
    double t2 = ringAllReduceSeconds(2, Bytes(1e9), BytesPerSec(1e9),
                                     Seconds(0.0))
                    .value();
    EXPECT_NEAR(t2, 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(ringAllReduceSeconds(1, Bytes(1e9), BytesPerSec(1e9),
                                          Seconds(1e-6))
                         .value(),
                     0.0);
}

TEST(CostModel, LatencyTermScalesWithSteps)
{
    double no_lat = ringAllReduceSeconds(16, Bytes(1e6),
                                         BytesPerSec(1e12), Seconds(0.0))
                        .value();
    double with_lat = ringAllReduceSeconds(16, Bytes(1e6),
                                           BytesPerSec(1e12),
                                           Seconds(1e-5))
                          .value();
    EXPECT_NEAR(with_lat - no_lat, 30.0 * 1e-5, 1e-12);
}

// ---- wire volume ------------------------------------------------------------

TEST(WireVolume, MatchesAlgorithmFactors)
{
    Bytes bytes(8e9);
    EXPECT_NEAR(CollectiveEngine::wireBytesPerRank(CollectiveKind::AllReduce,
                                                   bytes, 8)
                    .value(),
                2.0 * 8e9 * 7.0 / 8.0, 1.0);
    EXPECT_NEAR(CollectiveEngine::wireBytesPerRank(CollectiveKind::AllGather,
                                                   bytes, 8)
                    .value(),
                8e9 * 7.0 / 8.0, 1.0);
    EXPECT_NEAR(CollectiveEngine::wireBytesPerRank(CollectiveKind::AllToAll,
                                                   bytes, 8)
                    .value(),
                8e9 * 7.0 / 8.0, 1.0);
    EXPECT_DOUBLE_EQ(CollectiveEngine::wireBytesPerRank(
                         CollectiveKind::AllReduce, bytes, 1)
                         .value(),
                     0.0);
    EXPECT_EQ(CollectiveEngine::ringSteps(CollectiveKind::AllReduce, 8), 14);
    EXPECT_EQ(CollectiveEngine::ringSteps(CollectiveKind::Barrier, 8), 14);
    EXPECT_EQ(CollectiveEngine::ringSteps(CollectiveKind::AllGather, 8), 7);
    EXPECT_EQ(CollectiveEngine::ringSteps(CollectiveKind::ReduceScatter, 8),
              7);
}

// ---- flow execution ---------------------------------------------------------

TEST_F(CollFixture, IntraNodeAllReduceMatchesAnalytic)
{
    net::Topology topo(net::Topology::hgxParams(1));
    net::FlowNetwork netw(sim, topo);
    double bytes = 1e9;
    double t = runCollective(netw, CollectiveKind::AllReduce,
                             {0, 1, 2, 3, 4, 5, 6, 7}, bytes);
    double analytic =
        ringAllReduceSeconds(
            8, Bytes(bytes),
            topo.params().nvlinkBw * net::calib::kProtocolEfficiency,
            topo.params().intraLatency)
            .value();
    EXPECT_NEAR(t, analytic, analytic * 0.05);
}

TEST_F(CollFixture, CrossNodeAllReduceBottleneckedByNic)
{
    net::Topology topo(net::Topology::hgxParams(2));
    net::FlowNetwork netw(sim, topo);
    double bytes = 1e8;
    // Group spanning both nodes: ring crosses the NIC twice.
    double cross = runCollective(
        netw, CollectiveKind::AllReduce,
        {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, bytes);
    sim::Simulator sim2;
    net::FlowNetwork netw2(sim2, topo);
    CollectiveEngine eng2(sim2, netw2);
    double intra = -1.0;
    CollectiveRequest req;
    req.kind = CollectiveKind::AllReduce;
    req.ranks = {0, 1, 2, 3, 4, 5, 6, 7};
    req.bytes = Bytes(bytes);
    eng2.run(req, [&] { intra = sim2.nowSeconds(); });
    sim2.run();
    // NIC (12.5 GB/s) vs NVLink (450 GB/s): cross-node much slower.
    EXPECT_GT(cross, 5.0 * intra);
}

TEST_F(CollFixture, AllToAllLocalityAdvantage)
{
    // EP8 confined within one node vs spanning two nodes: the paper's
    // key locality result for expert parallelism (Sec. 4.2).
    net::Topology topo(net::Topology::hgxParams(2));
    net::FlowNetwork netw(sim, topo);
    double bytes = 2e8;
    double local = runCollective(netw, CollectiveKind::AllToAll,
                                 {0, 1, 2, 3, 4, 5, 6, 7}, bytes);
    sim::Simulator sim2;
    net::FlowNetwork netw2(sim2, topo);
    CollectiveEngine eng2(sim2, netw2);
    double spread = -1.0;
    CollectiveRequest req;
    req.kind = CollectiveKind::AllToAll;
    req.ranks = {0, 1, 2, 3, 8, 9, 10, 11}; // half on each node
    req.bytes = Bytes(bytes);
    eng2.run(req, [&] { spread = sim2.nowSeconds(); });
    sim2.run();
    EXPECT_GT(spread, 3.0 * local);
}

TEST_F(CollFixture, SendRecvUnchunkedPaysHandshake)
{
    net::Topology topo(net::Topology::hgxParams(2));
    net::FlowNetwork netw(sim, topo);
    double chunked = runCollective(netw, CollectiveKind::SendRecv,
                                   {0, 8}, 1e6, true);
    sim::Simulator sim2;
    net::FlowNetwork netw2(sim2, topo);
    CollectiveEngine eng2(sim2, netw2);
    double unchunked = -1.0;
    CollectiveRequest req;
    req.kind = CollectiveKind::SendRecv;
    req.ranks = {0, 8};
    req.bytes = Bytes(1e6);
    req.chunked = false;
    eng2.run(req, [&] { unchunked = sim2.nowSeconds(); });
    sim2.run();
    EXPECT_NEAR(unchunked - chunked,
                net::calib::kUnchunkedHandshakeSec, 1e-6);
}

TEST_F(CollFixture, BarrierCompletesQuickly)
{
    net::Topology topo(net::Topology::hgxParams(1));
    net::FlowNetwork netw(sim, topo);
    double t = runCollective(netw, CollectiveKind::Barrier,
                             {0, 1, 2, 3}, 0.0);
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 1e-3);
}

TEST_F(CollFixture, SingleRankGroupCompletes)
{
    net::Topology topo(net::Topology::hgxParams(1));
    net::FlowNetwork netw(sim, topo);
    double t = runCollective(netw, CollectiveKind::AllReduce, {5}, 1e9);
    EXPECT_GE(t, 0.0);
    EXPECT_LT(t, 1e-3);
}

TEST_F(CollFixture, ConcurrentCollectivesContend)
{
    // Two TP groups on the same node: both complete, slower than solo.
    net::Topology topo(net::Topology::hgxParams(1));
    double bytes = 1e9;
    double solo = runCollective(
        *std::make_unique<net::FlowNetwork>(sim, topo).get(),
        CollectiveKind::AllReduce, {0, 1, 2, 3}, bytes);

    sim::Simulator sim2;
    net::FlowNetwork netw2(sim2, topo);
    CollectiveEngine eng2(sim2, netw2);
    int done = 0;
    double t_last = 0.0;
    for (int g = 0; g < 2; ++g) {
        CollectiveRequest req;
        req.kind = CollectiveKind::AllReduce;
        req.ranks = {g * 4 + 0, g * 4 + 1, g * 4 + 2, g * 4 + 3};
        req.bytes = Bytes(bytes);
        eng2.run(req, [&] {
            ++done;
            t_last = sim2.nowSeconds();
        });
    }
    sim2.run();
    EXPECT_EQ(done, 2);
    // Disjoint rings on an NVSwitch fabric: no shared links, so no
    // slowdown (dedicated port links per GPU).
    EXPECT_NEAR(t_last, solo, solo * 0.05);
}

TEST_F(CollFixture, LargerGroupsMoveMoreTotalBytes)
{
    net::Topology topo(net::Topology::hgxParams(1));
    net::FlowNetwork netw(sim, topo);
    runCollective(netw, CollectiveKind::AllReduce, {0, 1, 2, 3, 4, 5, 6,
                                                    7},
                  1e9);
    double total = 0.0;
    for (int l = 0; l < static_cast<int>(topo.links().size()); ++l)
        total += netw.linkBytes(l).value();
    // 8 flows x wire bytes x 2 links each.
    double expected = 8.0 * (2.0 * 1e9 * 7.0 / 8.0) * 2.0;
    EXPECT_NEAR(total, expected, expected * 0.01);
}


TEST_F(CollFixture, HierarchicalAllReduceBeatsFlatAcrossNodes)
{
    // Topology-aware execution (paper Sec. 4.2 recommendation): a
    // 16-rank group spanning two nodes keeps most wire volume on
    // NVLink and only the reduced shards cross the NIC.
    net::Topology topo(net::Topology::hgxParams(2));
    double bytes = 2e9;
    std::vector<int> ranks(16);
    for (int i = 0; i < 16; ++i)
        ranks[static_cast<std::size_t>(i)] = i;

    net::FlowNetwork flat_net(sim, topo);
    double flat = runCollective(flat_net, CollectiveKind::AllReduce,
                                ranks, bytes);

    sim::Simulator sim2;
    net::FlowNetwork hier_net(sim2, topo);
    CollectiveEngine eng(sim2, hier_net);
    double hier = -1.0;
    CollectiveRequest req;
    req.kind = CollectiveKind::AllReduce;
    req.ranks = ranks;
    req.bytes = Bytes(bytes);
    req.topologyAware = true;
    eng.run(req, [&] { hier = sim2.nowSeconds(); });
    sim2.run();
    ASSERT_GT(hier, 0.0);
    EXPECT_LT(hier, flat * 0.75);
}

TEST_F(CollFixture, HierarchicalFallsBackForIntraNodeGroup)
{
    // A group confined to one node gains nothing; the request must
    // still complete with identical semantics.
    net::Topology topo(net::Topology::hgxParams(2));
    net::FlowNetwork netw(sim, topo);
    CollectiveEngine eng(sim, netw);
    double t_aware = -1.0;
    CollectiveRequest req;
    req.kind = CollectiveKind::AllReduce;
    req.ranks = {0, 1, 2, 3, 4, 5, 6, 7};
    req.bytes = Bytes(1e9);
    req.topologyAware = true;
    eng.run(req, [&] { t_aware = sim.nowSeconds(); });
    sim.run();
    sim::Simulator sim2;
    net::FlowNetwork netw2(sim2, topo);
    double t_flat = -1.0;
    CollectiveRequest req2;
    req2.kind = CollectiveKind::AllReduce;
    req2.ranks = {0, 1, 2, 3, 4, 5, 6, 7};
    req2.bytes = Bytes(1e9);
    CollectiveEngine eng2(sim2, netw2);
    eng2.run(req2, [&] { t_flat = sim2.nowSeconds(); });
    sim2.run();
    EXPECT_NEAR(t_aware, t_flat, t_flat * 0.01);
}

TEST_F(CollFixture, HierarchicalAllGatherAndReduceScatterComplete)
{
    net::Topology topo(net::Topology::hgxParams(2));
    std::vector<int> ranks;
    for (int i = 0; i < 16; ++i)
        ranks.push_back(i);
    for (auto kind : {CollectiveKind::AllGather,
                      CollectiveKind::ReduceScatter}) {
        sim::Simulator s;
        net::FlowNetwork netw(s, topo);
        CollectiveEngine eng(s, netw);
        double done = -1.0;
        CollectiveRequest req;
        req.kind = kind;
        req.ranks = ranks;
        req.bytes = Bytes(5e8);
        req.topologyAware = true;
        eng.run(req, [&] { done = s.nowSeconds(); });
        s.run();
        EXPECT_GT(done, 0.0) << collectiveKindName(kind);
    }
}

} // namespace
