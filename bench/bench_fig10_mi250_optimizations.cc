/**
 * @file
 * Regenerates paper Figure 10: GPU power, temperature, and clock
 * frequency on the MI250 cluster across models, parallelism
 * configurations, and optimization techniques (Base / act / cc).
 * Models are the ~30B scaled-down variants the paper uses on AMD
 * hardware (Sec. 3.2).
 */

#include <cstdio>

#include "bench_util.hh"

using namespace charllm;
using benchutil::sweepConfig;

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner("Figure 10",
                      "MI250: optimization techniques vs power, "
                      "temperature, clocks");

    auto cluster = core::mi250Cluster();
    std::vector<core::ExperimentConfig> configs;
    for (const auto& m : {model::gpt3_30b(), model::llama3_30b()}) {
        for (const auto& par : core::paperConfigs(m, cluster)) {
            if (par.fsdp)
                continue;
            auto base = sweepConfig(cluster, m, par);
            auto act = base;
            act.train.actRecompute = true;
            auto cc = base;
            cc.train.ccOverlap = true;
            configs.push_back(base);
            configs.push_back(act);
            configs.push_back(cc);
        }
    }
    benchutil::printSystemMetrics(benchutil::runSweep(configs, flags));
    std::printf(
        "\nExpected: the chiplet GCDs run close to their (higher)\n"
        "junction limits; intra-package skew keeps the second GCD of\n"
        "each package hotter; recomputation consistently costs\n"
        "efficiency on these compute-bound 30B models.\n");
    return 0;
}
