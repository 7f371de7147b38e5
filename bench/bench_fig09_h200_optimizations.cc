/**
 * @file
 * Regenerates paper Figure 9: GPU power, temperature, and clock
 * frequency on the H200 cluster across models, parallelism
 * configurations, and optimization techniques (Base / act / cc),
 * with efficiency normalized per model to the best configuration.
 *
 * Expected shape: recomputation lowers efficiency except where it
 * unlocks better layouts (Mixtral-8x22B EP8-TP1-PP4); cc-overlap
 * helps communication-heavy layouts but raises peak temperature and
 * throttling, hurting PP-heavy ones.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace charllm;
using benchutil::sweepConfig;

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner("Figure 9",
                      "H200: optimization techniques vs power, "
                      "temperature, clocks");

    auto cluster = core::h200Cluster();
    std::vector<core::ExperimentConfig> configs;
    for (const auto& m :
         {model::gpt3_175b(), model::llama3_70b(),
          model::mixtral_8x22b()}) {
        for (const auto& par : core::paperConfigs(m, cluster)) {
            if (par.fsdp)
                continue;
            auto base = sweepConfig(cluster, m, par);
            auto act = base;
            act.train.actRecompute = true;
            auto cc = base;
            cc.train.ccOverlap = true;
            // Base where it fits, plus both optimization variants.
            configs.push_back(base);
            configs.push_back(act);
            configs.push_back(cc);
        }
    }
    benchutil::printSystemMetrics(benchutil::runSweep(configs, flags));
    std::printf(
        "\nExpected: act rows trail their Base rows in eff(norm)\n"
        "unless Base is OOM; cc rows raise peak temperature and\n"
        "throttle ratio, gaining only in communication-bound rows.\n");
    return 0;
}
