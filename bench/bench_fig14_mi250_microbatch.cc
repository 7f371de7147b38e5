/**
 * @file
 * Regenerates paper Figure 14: MI250 cluster microbatch scaling with
 * activation recomputation enabled.
 *
 * Expected shape: unlike the NVIDIA clusters, MI250 hits its memory
 * capacity before thermal stress, so growing the microbatch keeps
 * improving efficiency (higher per-kernel utilization and boost
 * clocks) across configurations.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace charllm;
using benchutil::sweepConfig;

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner("Figure 14",
                      "MI250 microbatch scaling (act enabled)");

    auto cluster = core::mi250Cluster();
    std::vector<core::ExperimentConfig> configs;
    for (const auto& m : {model::gpt3_30b(), model::llama3_30b()}) {
        for (const auto& par : core::paperConfigs(m, cluster)) {
            if (par.fsdp)
                continue;
            for (int mb : {1, 2, 4}) {
                auto cfg = sweepConfig(cluster, m, par);
                cfg.train.actRecompute = true;
                cfg.train.microbatchSize = mb;
                configs.push_back(cfg);
            }
        }
    }
    benchutil::printSystemMetrics(benchutil::runSweep(configs, flags));
    std::printf(
        "\nExpected: efficiency is non-decreasing in microbatch size\n"
        "for most rows (memory-capacity-limited, not thermally\n"
        "limited), with average clock rising as compute intensifies.\n");
    return 0;
}
