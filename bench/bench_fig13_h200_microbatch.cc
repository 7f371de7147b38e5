/**
 * @file
 * Regenerates paper Figure 13: H200 cluster across models,
 * parallelism configs, and microbatch sizes (1/2/4), with activation
 * recomputation enabled; efficiency normalized per model.
 *
 * Expected shape: larger microbatches help TP/FSDP-dominated layouts
 * (compute efficiency, coarser communication) but hurt PP-heavy ones
 * (bubbles, bursty execution); peak power and temperature rise with
 * microbatch size regardless of whether throughput improves.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace charllm;
using benchutil::sweepConfig;

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner("Figure 13",
                      "H200 microbatch scaling (act enabled)");

    auto cluster = core::h200Cluster();
    std::vector<core::ExperimentConfig> configs;
    for (const auto& m : {model::gpt3_175b(), model::llama3_70b()}) {
        for (const auto& par : core::paperConfigs(m, cluster)) {
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
        "\nExpected: TP8-FSDP gains >3x from mb1 -> mb4 (coarser\n"
        "gathers over the shared NIC); TP8-PP4 gains modestly\n"
        "(per-kernel efficiency); TP2-PP16 / TP1-PP32 lose efficiency\n"
        "at mb4 (pipeline bubbles grow as microbatch count shrinks).\n");
    return 0;
}
