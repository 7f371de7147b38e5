/**
 * @file
 * Regenerates paper Figure 23: GPU power, temperature, and clock
 * during distributed inference on the H200 cluster across parallelism
 * configurations and microbatch sizes.
 *
 * Expected shape: throughput grows with microbatch size without a
 * matching rise in average power or temperature (fewer sync steps,
 * less communication); inference draws less average power than
 * training, though bursty compute keeps peak power high.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace charllm;
using benchutil::sweepConfig;

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner("Figure 23",
                      "Distributed inference: microbatch sweep "
                      "(H200, GPT3-175B)");

    auto cluster = core::h200Cluster();
    std::vector<core::ExperimentConfig> configs;
    for (const auto& par :
         {parallel::ParallelConfig::forWorld(32, 8, 4),
          parallel::ParallelConfig::forWorld(32, 4, 8),
          parallel::ParallelConfig::forWorld(32, 2, 16)}) {
        for (int mb : {1, 2, 4, 8}) {
            auto cfg = sweepConfig(cluster, model::gpt3_175b(), par);
            cfg.train.inference = true;
            cfg.train.microbatchSize = mb;
            configs.push_back(cfg);
        }
    }
    // Training reference point for the power comparison, run last.
    auto train_cfg = sweepConfig(
        cluster, model::gpt3_175b(),
        parallel::ParallelConfig::forWorld(32, 2, 16));
    train_cfg.train.actRecompute = true;
    configs.push_back(train_cfg);
    auto rows = benchutil::runSweep(configs, flags);
    const auto train = std::move(rows.back().result);
    rows.pop_back();

    benchutil::printSystemMetrics(rows);
    std::printf("\nTraining reference (TP2-PP16+act): %.0f W avg, "
                "%.0f W peak.\nExpected: inference rows draw less "
                "average power at comparable peaks.\n",
                train.avgPowerW, train.peakPowerW);
    return 0;
}
