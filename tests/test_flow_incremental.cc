/**
 * @file
 * Equivalence tests for the incremental max-min flow solver. The same
 * seeded random traffic (arrivals, natural departures, mid-flight link
 * derates) is driven through the incremental solver and through a twin
 * forced to run the full water-fill on every change (the
 * pre-incremental behaviour); completion times, completion order, and
 * the lazily rebuilt telemetry caches must match exactly — not
 * approximately — since the fast paths are required to be
 * bit-identical. The same holds for an all-to-all burst whose joins
 * share one tick and settle in one water-fill (SameTickBurst*,
 * MidBurst*). The count gate (FlowWork.*) bounds the water-fill passes
 * of hostbench's moe_scaleout config.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "core/catalog.hh"
#include "core/cluster.hh"
#include "core/des_backend.hh"
#include "net/calibration.hh"
#include "net/flow_network.hh"
#include "net/topology.hh"
#include "sim/simulator.hh"

namespace {

using namespace charllm;
using namespace charllm::net;

constexpr int kNumGpus = 16; // hgxParams(2)

struct Arrival
{
    double atSec = 0.0;
    int src = 0;
    int dst = 0;
    double bytes = 0.0;
};

struct DerateEvent
{
    double atSec = 0.0;
    int node = 0;
    double factor = 1.0;
};

struct Workload
{
    std::vector<Arrival> arrivals;
    std::vector<DerateEvent> derates;
};

Workload
makeWorkload(std::uint64_t seed, int flows)
{
    Rng rng(seed);
    Workload w;
    for (int i = 0; i < flows; ++i) {
        Arrival a;
        a.atSec = rng.uniform(0.0, 0.05);
        a.src = static_cast<int>(rng.below(kNumGpus));
        // Includes src == dst (local-copy degenerate path) and both
        // intra-node (NVLink) and inter-node (PCIe+NIC) routes.
        a.dst = static_cast<int>(rng.below(kNumGpus));
        a.bytes = rng.uniform(1e6, 3e8);
        w.arrivals.push_back(a);
    }
    // NIC derates toggled mid-traffic (flapping-port style).
    for (int i = 0; i < 4; ++i) {
        int node = static_cast<int>(rng.below(2));
        double at = rng.uniform(0.01, 0.08);
        w.derates.push_back({at, node, rng.uniform(0.25, 0.75)});
        w.derates.push_back(
            {at + rng.uniform(0.005, 0.02), node, 1.0});
    }
    return w;
}

struct RunTrace
{
    /** (completion time, arrival index) in callback order. */
    std::vector<std::pair<double, int>> completions;
    /** Flattened telemetry probes (gpuRate x class, link util). */
    std::vector<double> probes;
    std::uint64_t fullRecomputes = 0;
    std::uint64_t fastJoins = 0;
    std::uint64_t fastCompletions = 0;
};

/** Read every GPU's rate per class and every link's utilization. */
void
probeTelemetry(FlowNetwork& netw, std::vector<double>& probes)
{
    for (int g = 0; g < kNumGpus; ++g)
        for (std::size_t c = 0; c < hw::kNumTrafficClasses; ++c)
            probes.push_back(
                netw.gpuRate(g, static_cast<hw::TrafficClass>(c)).value());
    for (std::size_t l = 0; l < netw.topology().links().size(); ++l)
        probes.push_back(netw.linkUtilization(static_cast<LinkId>(l)));
}

RunTrace
runWorkload(const Workload& w, bool force_full)
{
    sim::Simulator s;
    Topology topo(Topology::hgxParams(2));
    FlowNetwork netw(s, topo);
    netw.setForceFullRecompute(force_full);

    RunTrace trace;
    for (std::size_t i = 0; i < w.arrivals.size(); ++i) {
        const Arrival& a = w.arrivals[i];
        s.schedule(sim::toTicks(a.atSec), [&, i] {
            const Arrival& arr = w.arrivals[i];
            netw.transfer(arr.src, arr.dst, Bytes(arr.bytes),
                          [&trace, &s, i] {
                              trace.completions.emplace_back(
                                  s.nowSeconds(), static_cast<int>(i));
                          });
        });
    }
    for (const DerateEvent& d : w.derates) {
        s.schedule(sim::toTicks(d.atSec), [&netw, &topo, d] {
            netw.setLinkDerate(topo.nicOutLink(d.node), d.factor);
        });
    }
    // Probe the O(1) telemetry caches while traffic is in flight.
    for (int p = 1; p <= 20; ++p) {
        s.schedule(sim::toTicks(0.005 * p), [&] {
            probeTelemetry(netw, trace.probes);
        });
    }
    s.run();
    EXPECT_EQ(netw.numActiveFlows(), 0u);
    trace.fullRecomputes = netw.numFullRecomputes();
    trace.fastJoins = netw.numFastJoins();
    trace.fastCompletions = netw.numFastCompletions();
    return trace;
}

TEST(FlowIncremental, RandomTrafficMatchesForcedFullRecompute)
{
    for (std::uint64_t seed : {1ULL, 42ULL, 20250806ULL}) {
        Workload w = makeWorkload(seed, 60);
        RunTrace inc = runWorkload(w, /*force_full=*/false);
        RunTrace full = runWorkload(w, /*force_full=*/true);

        // Exact equality: times are compared bitwise, not NEAR.
        EXPECT_EQ(inc.completions, full.completions)
            << "seed " << seed;
        EXPECT_EQ(inc.probes, full.probes) << "seed " << seed;

        // The comparison must actually exercise the fast paths.
        EXPECT_GT(inc.fastJoins + inc.fastCompletions, 0u)
            << "seed " << seed;
        EXPECT_EQ(full.fastJoins, 0u);
        EXPECT_EQ(full.fastCompletions, 0u);
        EXPECT_LT(inc.fullRecomputes, full.fullRecomputes)
            << "seed " << seed;
    }
}

TEST(FlowIncremental, LiveRatesMatchReferenceWaterfill)
{
    // referenceRates() recomputes the allocation from scratch; probed
    // against the live gpuRate cache it pins the incremental
    // invariant directly (every flow's rate shows up in the Pcie or
    // scale-up aggregate of its source GPU).
    sim::Simulator s;
    Topology topo(Topology::hgxParams(2));
    FlowNetwork netw(s, topo);

    Rng rng(7);
    for (int i = 0; i < 40; ++i) {
        int src = static_cast<int>(rng.below(kNumGpus));
        int dst = static_cast<int>(rng.below(kNumGpus));
        if (dst == src)
            dst = (dst + 1) % kNumGpus;
        double bytes = rng.uniform(5e6, 2e8);
        s.schedule(sim::toTicks(rng.uniform(0.0, 0.03)),
                   [&netw, src, dst, bytes] {
                       netw.transfer(src, dst, Bytes(bytes), [] {});
                   });
    }
    int checked_probes = 0;
    for (int p = 1; p <= 10; ++p) {
        s.schedule(sim::toTicks(0.004 * p), [&] {
            auto ref = netw.referenceRates();
            if (ref.empty())
                return;
            ++checked_probes;
            // Total reference throughput equals the sum of per-GPU
            // egress aggregates (each flow leaves its source through
            // exactly one first link, owned by the source GPU).
            double ref_total = 0.0;
            for (const auto& [id, rate] : ref)
                ref_total += rate;
            double agg_total = 0.0;
            for (int g = 0; g < kNumGpus; ++g)
                for (std::size_t c = 0; c < hw::kNumTrafficClasses;
                     ++c)
                    agg_total +=
                        netw.gpuRate(g,
                                     static_cast<hw::TrafficClass>(c))
                            .value();
            // Aggregates may count a flow at both endpoints and on
            // intermediate classes, so compare a strict lower bound
            // and per-flow positivity instead of exact totals.
            EXPECT_GE(agg_total, ref_total * (1.0 - 1e-12));
            for (const auto& [id, rate] : ref)
                EXPECT_GT(rate, 0.0);
        });
    }
    s.run();
    EXPECT_GT(checked_probes, 0);
    EXPECT_EQ(netw.numActiveFlows(), 0u);
}

TEST(FlowIncremental, UncontendedJoinAndCompletionTakeFastPath)
{
    sim::Simulator s;
    Topology topo(Topology::hgxParams(1));
    FlowNetwork netw(s, topo);
    double t1 = -1.0, t2 = -1.0;
    double bytes = 4.5e9;
    // Disjoint NVLink routes: neither join sees a contended link.
    netw.transfer(0, 1, Bytes(bytes), [&] { t1 = s.nowSeconds(); });
    netw.transfer(2, 3, Bytes(bytes), [&] { t2 = s.nowSeconds(); });
    s.run();
    EXPECT_GE(netw.numFastJoins(), 1u);
    EXPECT_GE(netw.numFastCompletions(), 1u);
    // Fast-pathed flows still run at the full link rate.
    double solo = topo.params().intraLatency.value() +
                  bytes / (topo.params().nvlinkBw.value() *
                           calib::kProtocolEfficiency);
    EXPECT_NEAR(t1, solo, solo * 0.02);
    EXPECT_NEAR(t2, solo, solo * 0.02);
}

TEST(FlowIncremental, AggregatesRebuildOnlyWhenQueriedAfterChange)
{
    sim::Simulator s;
    Topology topo(Topology::hgxParams(2));
    FlowNetwork netw(s, topo);
    // Inter-node flows: every source GPU drives its PCIe port.
    for (int i = 0; i < 8; ++i)
        netw.transfer(i, i + 8, Bytes(1e9), [] {});
    double rate = 0.0;
    std::uint64_t after_queries = 0;
    s.schedule(sim::toTicks(0.002), [&] {
        rate = netw.gpuRate(0, hw::TrafficClass::Pcie).value();
        (void)netw.linkUtilization(topo.pcieOutLink(0));
        (void)netw.gpuRate(1, hw::TrafficClass::Pcie);
        after_queries = netw.numAggregateRebuilds();
    });
    s.run();
    EXPECT_GT(rate, 0.0);
    // Three queries after the last change cost one rebuild, and the
    // many allocation changes nobody queried cost none.
    EXPECT_EQ(after_queries, 1u);
    EXPECT_EQ(netw.numAggregateRebuilds(), 1u);
    EXPECT_GT(netw.numFullRecomputes() + netw.numFastJoins(), 1u);
}

/** What the burst tick carries between its two halves of joins. */
enum class MidBurst
{
    Derate,   //!< an eager setLinkDerate
    Telemetry //!< a gpuRate/linkUtilization read of every port/link
};

struct BurstTrace
{
    /** (completion tick, flow index) in callback order; index -1 and
     *  -2 are the two pre-burst flows. */
    std::vector<std::pair<sim::Tick, int>> completions;
    std::vector<double> probes;
    /** Full passes the mid-burst telemetry read ran. */
    std::uint64_t readRecomputes = 0;
    std::uint64_t fullRecomputes = 0;
    /** Distinct ticks at which any flow joined or completed. */
    std::size_t changeTicks = 0;
};

/** Two flows share 0 -> 8 from time 0; the small one finishes first. */
void
startPreBurst(sim::Simulator& s, FlowNetwork& netw,
              std::vector<std::pair<sim::Tick, int>>& completions)
{
    netw.transfer(0, 8, Bytes(2e7), [&] {
        completions.emplace_back(s.now(), -1);
    });
    netw.transfer(0, 8, Bytes(6e8), [&] {
        completions.emplace_back(s.now(), -2);
    });
}

/** The tick at which the small pre-burst flow completes. */
sim::Tick
preBurstCompletionTick()
{
    sim::Simulator s;
    Topology topo(Topology::hgxParams(2));
    FlowNetwork netw(s, topo);
    std::vector<std::pair<sim::Tick, int>> completions;
    startPreBurst(s, netw, completions);
    s.run();
    EXPECT_EQ(completions.size(), 2u);
    return completions.empty() ? 0 : completions.front().first;
}

/**
 * A seeded all-to-all burst over every ordered GPU pair of
 * hgxParams(2), issued so that every member joins at one tick: the
 * tick at which a contended pre-burst flow completes naturally. Half
 * way through the joins, @p mid runs.
 */
BurstTrace
runBurst(sim::Tick burst_tick, MidBurst mid, bool force_full)
{
    sim::Simulator s;
    Topology topo(Topology::hgxParams(2));
    FlowNetwork netw(s, topo);
    netw.setForceFullRecompute(force_full);

    struct Member
    {
        const FlowNetwork::WeightedRoute* route = nullptr;
        double bytes = 0.0;
    };
    std::vector<Member> burst;
    Rng rng(2025);
    for (int src = 0; src < kNumGpus; ++src) {
        for (int dst = 0; dst < kNumGpus; ++dst) {
            if (src == dst)
                continue;
            std::vector<LinkId> links = topo.route(src, dst);
            std::vector<int> weights(links.size(), 1);
            burst.push_back({netw.internRoute(std::move(links),
                                              std::move(weights)),
                             rng.uniform(1e6, 2e8)});
        }
    }

    BurstTrace trace;
    startPreBurst(s, netw, trace.completions);
    s.scheduleAt(burst_tick, [&] {
        for (std::size_t i = 0; i < burst.size(); ++i) {
            // Zero latency: each join is queued at this very tick.
            netw.transferOnRoute(burst[i].route, Bytes(burst[i].bytes),
                                 Seconds(0.0), [&trace, &s, i] {
                                     trace.completions.emplace_back(
                                         s.now(), static_cast<int>(i));
                                 });
            if (i != burst.size() / 2)
                continue;
            if (mid == MidBurst::Derate) {
                s.schedule(0, [&netw, &topo] {
                    netw.setLinkDerate(topo.nicOutLink(1), 0.4);
                });
                continue;
            }
            s.schedule(0, [&] {
                std::uint64_t before = netw.numFullRecomputes();
                probeTelemetry(netw, trace.probes);
                trace.readRecomputes = netw.numFullRecomputes() - before;
            });
        }
    });
    s.run();
    EXPECT_EQ(netw.numActiveFlows(), 0u);
    EXPECT_EQ(trace.completions.size(), burst.size() + 2);

    std::vector<sim::Tick> ticks = {sim::toTicks(
        topo.messageLatency(0, 8).value())};
    for (const auto& [tick, index] : trace.completions)
        ticks.push_back(tick);
    std::sort(ticks.begin(), ticks.end());
    trace.changeTicks = static_cast<std::size_t>(
        std::unique(ticks.begin(), ticks.end()) - ticks.begin());
    trace.fullRecomputes = netw.numFullRecomputes();
    return trace;
}

TEST(FlowIncremental, SameTickBurstSettlesOnce)
{
    sim::Tick burst_tick = preBurstCompletionTick();
    ASSERT_GT(burst_tick, 0u);
    BurstTrace inc = runBurst(burst_tick, MidBurst::Derate, false);
    BurstTrace full = runBurst(burst_tick, MidBurst::Derate, true);

    // The burst really shares its tick with the natural completion.
    ASSERT_FALSE(inc.completions.empty());
    EXPECT_EQ(inc.completions.front(), std::make_pair(burst_tick, -1));
    // Bitwise: completion ticks and order.
    EXPECT_EQ(inc.completions, full.completions);

    // One water-fill per tick with a change; the derate between the
    // joins stays an eager pass of its own and re-stales the rest.
    EXPECT_LE(inc.fullRecomputes, inc.changeTicks + 1)
        << inc.fullRecomputes << " passes over " << inc.changeTicks
        << " ticks";
    EXPECT_GT(full.fullRecomputes, inc.changeTicks + 200);
}

TEST(FlowIncremental, MidBurstTelemetryReadMatchesForcedFull)
{
    sim::Tick burst_tick = preBurstCompletionTick();
    ASSERT_GT(burst_tick, 0u);
    BurstTrace inc = runBurst(burst_tick, MidBurst::Telemetry, false);
    BurstTrace full = runBurst(burst_tick, MidBurst::Telemetry, true);

    // The read found the allocation stale and settled it: one pass.
    EXPECT_EQ(inc.readRecomputes, 1u);
    EXPECT_EQ(full.readRecomputes, 0u);
    ASSERT_FALSE(inc.probes.empty());
    EXPECT_EQ(inc.probes, full.probes);
    EXPECT_EQ(inc.completions, full.completions);
}

TEST(FlowIncremental, ForceFullRecomputeDisablesFastPaths)
{
    sim::Simulator s;
    Topology topo(Topology::hgxParams(1));
    FlowNetwork netw(s, topo);
    netw.setForceFullRecompute(true);
    netw.transfer(0, 1, Bytes(1e8), [] {});
    netw.transfer(2, 3, Bytes(1e8), [] {});
    s.run();
    EXPECT_EQ(netw.numFastJoins(), 0u);
    EXPECT_EQ(netw.numFastCompletions(), 0u);
    EXPECT_GE(netw.numFullRecomputes(), 2u);
}

TEST(FlowWork, MoeScaleoutSettlesOncePerTick)
{
    // hostbench moe_scaleout's config: Figure 2's Mixtral-8x7B
    // EP8-TP2-PP4-DP8 row on 64xH100, one warm-up and one measured
    // iteration. Each all-to-all burst joins at one tick; a water-fill
    // per join would cost a pass for most flows.
    core::ExperimentConfig cfg;
    cfg.cluster = core::h100Cluster();
    cfg.model = model::mixtral_8x7b();
    cfg.par = parallel::ParallelConfig::forWorld(64, 2, 4, 8);
    cfg.warmupIterations = 1;
    cfg.measuredIterations = 1;
    core::DesBackend backend;
    backend.lower(cfg);
    backend.execute();
    auto r = backend.results();
    ASSERT_TRUE(r.feasible);
    const auto& c = r.counters;
    ASSERT_GT(c.flowsStarted, 10000u);
    EXPECT_LE(static_cast<double>(c.flowFullRecomputes),
              0.1 * static_cast<double>(c.flowsStarted))
        << c.flowFullRecomputes << " water-fill passes over "
        << c.flowsStarted << " flows";
}

} // namespace
