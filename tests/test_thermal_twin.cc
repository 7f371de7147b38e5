/**
 * @file
 * The governor tick's fast path against its reference twin. Each
 * thermal figure family runs once with lazy ticks (closed-form
 * temperatures, only devices with a decision pending evaluated) and
 * once with the eager forward-Euler twin, through core::compareResults
 * under the "thermal" tolerance row (ThermalTwin.*). The count gate
 * (GovernorWork.*) bounds how many devices the lazy tick evaluates,
 * how few ticks still cost a dispatch, that retimes move their event
 * in place, and how few refreshes miss the clock memo.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/quantity.hh"
#include "core/catalog.hh"
#include "core/cluster.hh"
#include "core/compare.hh"
#include "core/des_backend.hh"
#include "faults/scenarios.hh"

namespace {

using namespace charllm;
using namespace charllm::unit_literals;

/** One warm-up and one measured iteration, as the figure sweeps run. */
core::ExperimentConfig
sweepConfig(const core::ClusterSpec& cluster,
            const model::TransformerConfig& m,
            const parallel::ParallelConfig& par)
{
    core::ExperimentConfig cfg;
    cfg.cluster = cluster;
    cfg.model = m;
    cfg.par = par;
    cfg.warmupIterations = 1;
    cfg.measuredIterations = 1;
    return cfg;
}

core::ExperimentResult
run(const core::ExperimentConfig& cfg, hw::TickMode ticks)
{
    core::DesBackend backend(ticks);
    backend.lower(cfg);
    backend.execute();
    return backend.results();
}

/** Lazy ticks match the eager twin within the thermal row, decide
 *  every clock change the twin decides, and evaluate no more often. */
void
expectTwins(const core::ExperimentConfig& cfg)
{
    auto lazy = run(cfg, hw::TickMode::Lazy);
    auto eager = run(cfg, hw::TickMode::Eager);
    ASSERT_TRUE(eager.feasible);
    auto cmp = core::compareResults(lazy, eager, core::tolerance("thermal"));
    EXPECT_EQ(cmp.breaches, std::vector<std::string>{});
    EXPECT_EQ(lazy.counters.governorTicks, eager.counters.governorTicks);
    EXPECT_EQ(lazy.counters.clockChanges, eager.counters.clockChanges);
    EXPECT_EQ(eager.counters.deviceEvals,
              eager.counters.governorTicks * eager.gpus.size());
    EXPECT_LE(lazy.counters.deviceEvals, eager.counters.deviceEvals);
}

TEST(ThermalTwin, Fig04H200PowerThermalFrequency)
{
    expectTwins(sweepConfig(core::h200Cluster(), model::gpt3_175b(),
                            parallel::ParallelConfig::forWorld(32, 4, 8)));
}

TEST(ThermalTwin, Fig09H200Optimizations)
{
    auto cfg = sweepConfig(core::h200Cluster(), model::gpt3_175b(),
                           parallel::ParallelConfig::forWorld(32, 8, 4));
    cfg.train.actRecompute = true;
    expectTwins(cfg);
    cfg.train.actRecompute = false;
    cfg.train.ccOverlap = true;
    expectTwins(cfg);
}

TEST(ThermalTwin, Fig10Mi250Optimizations)
{
    auto cfg = sweepConfig(core::mi250Cluster(), model::llama3_30b(),
                           parallel::ParallelConfig::forWorld(32, 4, 8));
    cfg.train.actRecompute = true;
    expectTwins(cfg);
}

/** Fig. 17's GPT3-175B TP8-PP4 on 32xH200, warm enough to throttle. */
core::ExperimentConfig
fig17Config()
{
    auto cfg = sweepConfig(core::h200Cluster(), model::gpt3_175b(),
                           parallel::ParallelConfig::forWorld(32, 8, 4));
    cfg.warmupIterations = 2;
    return cfg;
}

TEST(ThermalTwin, Fig17HgxRearThrottling)
{
    expectTwins(fig17Config());
}

TEST(ThermalTwin, Fig18Mi250PackageCoupling)
{
    auto cfg = sweepConfig(core::mi250Cluster(), model::gpt3_30b(),
                           parallel::ParallelConfig::forWorld(32, 2, 16));
    cfg.warmupIterations = 2;
    expectTwins(cfg);
}

TEST(ThermalTwin, Fig19SamplerSeries)
{
    auto cfg = sweepConfig(core::h200Cluster(), model::gpt3_175b(),
                           parallel::ParallelConfig::forWorld(32, 4, 8));
    cfg.warmupIterations = 0;
    cfg.measuredIterations = 2;
    cfg.enableSampler = true;
    cfg.samplePeriodSec = 0.25;
    expectTwins(cfg);
}

TEST(ThermalTwin, HotInletFanFailureAndNodePowerCap)
{
    // Thermal faults set and cleared between ticks, on top of a node
    // power cap from the start.
    auto cfg = sweepConfig(core::h200Cluster(), model::gpt3_175b(),
                           parallel::ParallelConfig::forWorld(32, 4, 8));
    cfg.faultScenario = faults::scenarios::hotInlet(1, 14.0_dC, 3.0);
    cfg.faultScenario.faults.front().durationSec = 20.0;
    cfg.faultScenario.faults.push_back(
        {faults::FaultKind::FanFailure, 10, 7.5, 0.0, 1.8});
    cfg.nodePowerCaps = {{2, 450.0}};
    expectTwins(cfg);
}

TEST(GovernorWork, FsdpThermalEvaluatesFewDevices)
{
    // hostbench fsdp_thermal's config (GPT3-175B TP8-FSDP4 on 32xH200),
    // at a quarter of the global batch. The eager twin evaluates every
    // device every tick: a ratio of 1.
    auto cfg = sweepConfig(core::h200Cluster(), model::gpt3_175b(),
                           parallel::ParallelConfig::forWorld(32, 8, 1, 1,
                                                              true));
    cfg.train.globalBatchSize /= 4;
    auto r = run(cfg, hw::TickMode::Lazy);
    ASSERT_TRUE(r.feasible);
    const auto& c = r.counters;
    ASSERT_GT(c.governorTicks, 100000u);
    EXPECT_LE(static_cast<double>(c.deviceEvals),
              0.05 * static_cast<double>(c.governorTicks) *
                  static_cast<double>(r.gpus.size()))
        << c.deviceEvals << " evaluations over " << c.governorTicks
        << " ticks";
    EXPECT_LE(c.clockChanges, c.deviceEvals);
    // The kernel fast-forwards the ticks that would return at once
    // (measured: 97.6% of them) instead of dispatching them.
    EXPECT_GE(static_cast<double>(c.ticksFastForwarded),
              0.9 * static_cast<double>(c.governorTicks))
        << c.ticksFastForwarded << " of " << c.governorTicks
        << " ticks fast-forwarded";
    // A clock change moves its compute completion in place instead of
    // cancelling it and scheduling a new one.
    EXPECT_GE(c.eventsRescheduled, c.clockChanges / 2);
}

TEST(GovernorWork, Fig17PowerMemoHits)
{
    // The power cap and boost move most clocks back and forth between
    // two values, so the two-entry clock memo spares nearly every
    // refresh its pow (measured: 97,188 of 1,226,840, 0.079).
    auto r = run(fig17Config(), hw::TickMode::Lazy);
    ASSERT_TRUE(r.feasible);
    const auto& c = r.counters;
    ASSERT_GT(c.clockChanges, 500000u);
    EXPECT_GE(c.refreshes, c.clockChanges);
    EXPECT_LE(static_cast<double>(c.powerEvals),
              0.09 * static_cast<double>(c.refreshes))
        << c.powerEvals << " power evaluations over " << c.refreshes
        << " refreshes";
}

} // namespace
