/**
 * @file
 * Regenerates paper Figure 18: thermal distribution and normalized
 * clock throttling across the MI250 cluster's GCDs.
 *
 * Expected shape: 5-10 degC skew between the two GCDs of each
 * package (the downstream GCD is hotter), rear packages hotter than
 * front ones, and throttling concentrated on the hot GCDs.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/strings.hh"

using namespace charllm;

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner("Figure 18",
                      "MI250 thermal and throttling heatmaps");

    std::vector<core::ExperimentConfig> configs;
    for (const auto& par :
         {parallel::ParallelConfig::forWorld(32, 4, 8),
          parallel::ParallelConfig::forWorld(32, 2, 16)}) {
        auto cfg = benchutil::sweepConfig(core::mi250Cluster(),
                                          model::gpt3_30b(), par);
        cfg.train.actRecompute = true;
        cfg.warmupIterations = 2;
        configs.push_back(cfg);
    }
    auto rows = benchutil::runSweep(configs, flags);

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i].result;
        if (!r.feasible)
            continue;
        std::printf("=== GPT3-30B %s ===\n",
                    configs[i].par.label().c_str());
        TextTable t({"node", "package", "GCD0 temp", "GCD1 temp",
                     "skew", "GCD0 thr", "GCD1 thr"});
        double skew_min = 1e30, skew_max = -1e30;
        for (int node = 0; node < 4; ++node) {
            for (int pkg = 0; pkg < 4; ++pkg) {
                const auto& g0 = r.gpus[static_cast<std::size_t>(
                    node * 8 + pkg * 2)];
                const auto& g1 = r.gpus[static_cast<std::size_t>(
                    node * 8 + pkg * 2 + 1)];
                double skew = g1.avgTempC - g0.avgTempC;
                skew_min = std::min(skew_min, skew);
                skew_max = std::max(skew_max, skew);
                t.addRow({std::to_string(node), std::to_string(pkg),
                          formatFixed(g0.avgTempC, 1),
                          formatFixed(g1.avgTempC, 1),
                          formatFixed(skew, 1),
                          formatFixed(100.0 * g0.throttleRatio, 1) +
                              "%",
                          formatFixed(100.0 * g1.throttleRatio, 1) +
                              "%"});
            }
        }
        t.print();
        std::printf("intra-package skew range: %.1f .. %.1f C\n\n",
                    skew_min, skew_max);
    }
    return 0;
}
