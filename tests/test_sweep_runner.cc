/**
 * @file
 * SweepRunner determinism tests: experiment runs are shared-nothing,
 * so the result sequence must be identical — field for field, bit for
 * bit — whether a sweep executes serially or across a thread pool,
 * and regardless of claim interleaving. A sweep also folds the
 * simulator's self-profiling counters into the registry it is given.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/catalog.hh"
#include "core/compare.hh"
#include "core/sweep_runner.hh"
#include "obs/metrics.hh"

namespace {

using namespace charllm;
using namespace charllm::core;

std::vector<ExperimentConfig>
smallSweep()
{
    // A cheap but non-trivial sweep: one small model on a one-node
    // cluster across several layouts, including an infeasible-leaning
    // variant (memory screening must also be deterministic).
    auto cluster = h200Cluster(1);
    auto m = model::gpt3_30b();
    std::vector<ExperimentConfig> configs;
    const std::vector<std::pair<int, int>> layouts = {
        {1, 4}, {2, 4}, {4, 2}, {8, 1}, {2, 2}, {1, 8}};
    for (auto [tp, pp] : layouts) {
        ExperimentConfig cfg;
        cfg.cluster = cluster;
        cfg.model = m;
        cfg.par = parallel::ParallelConfig::forWorld(8, tp, pp);
        cfg.warmupIterations = 1;
        cfg.measuredIterations = 1;
        configs.push_back(cfg);
    }
    return configs;
}

TEST(SweepRunner, ThreadCountResolution)
{
    EXPECT_GE(SweepRunner::defaultThreads(), 1);
    EXPECT_EQ(SweepRunner(1).numThreads(), 1);
    EXPECT_EQ(SweepRunner(7).numThreads(), 7);
    EXPECT_EQ(SweepRunner(0).numThreads(),
              SweepRunner::defaultThreads());
}

TEST(SweepRunner, EmptySweep)
{
    EXPECT_TRUE(SweepRunner(4).run({}).empty());
}

TEST(SweepRunner, ParallelResultsIdenticalToSerial)
{
    auto configs = smallSweep();
    auto serial = SweepRunner(1).run(configs);
    ASSERT_EQ(serial.size(), configs.size());
    // More workers than configs exercises pool clamping; 2 and 4
    // exercise different claim interleavings.
    for (int threads : {2, 4, static_cast<int>(configs.size()) + 3}) {
        auto parallel = SweepRunner(threads).run(configs);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE("config " + std::to_string(i) + ", threads " +
                         std::to_string(threads));
            EXPECT_EQ(compareResults(parallel[i], serial[i],
                                     tolerance("bitwise"))
                          .breaches,
                      std::vector<std::string>{});
        }
    }
}

TEST(SweepRunner, ResultsStayInSubmissionOrder)
{
    auto configs = smallSweep();
    obs::MetricsRegistry registry;
    auto results = SweepRunner(4).run(configs, &registry);
    ASSERT_EQ(results.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        if (results[i].feasible)
            EXPECT_EQ(results[i].label, configs[i].label());
    }
    // The self-profiling counters a --metrics dump reports: a zero (or
    // a metric the lookup has to create) means the instrumentation came
    // unwired from its hot path.
    for (const char* name : {"sim.events_popped", "net.flows_started",
                             "net.full_recomputes", "sweep.tasks"})
        EXPECT_GT(registry.counter(name).value(), 0u) << name;
    EXPECT_GT(registry.histogram("sweep.task_wall_seconds").count(), 0u);
}

} // namespace
