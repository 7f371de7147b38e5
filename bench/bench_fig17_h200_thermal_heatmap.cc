/**
 * @file
 * Regenerates paper Figure 17: (a) average GPU temperature and (b)
 * normalized clock-throttling heatmaps across the H200 cluster's
 * GPUs, per parallelism configuration.
 *
 * Expected shape: exhaust-row GPUs (odd device ids in this chassis
 * enumeration) run consistently hotter — differentials up to ~25% —
 * and the throttle heatmap correlates with the temperature heatmap.
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.hh"
#include "common/strings.hh"

using namespace charllm;

namespace {

void
printHeatmap(const char* title, const core::ExperimentResult& r,
             bool throttle, int nodes, int gpn)
{
    std::printf("%s\n", title);
    std::vector<std::string> cols = {"node"};
    for (int g = 0; g < gpn; ++g)
        cols.push_back("gpu" + std::to_string(g));
    TextTable t(cols);
    double lo = 1e30, hi = -1e30;
    for (const auto& g : r.gpus) {
        double v = throttle ? g.throttleRatio : g.avgTempC;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    for (int node = 0; node < nodes; ++node) {
        std::vector<std::string> row = {std::to_string(node)};
        for (int g = 0; g < gpn; ++g) {
            const auto& gpu =
                r.gpus[static_cast<std::size_t>(node * gpn + g)];
            if (throttle) {
                // Normalized 0..1 per configuration (paper Fig 17b).
                double v = hi > lo ? (gpu.throttleRatio - lo) /
                                         (hi - lo)
                                   : 0.0;
                row.push_back(formatFixed(v, 2));
            } else {
                row.push_back(formatFixed(gpu.avgTempC, 1));
            }
        }
        t.addRow(row);
    }
    t.print();
}

} // namespace

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner("Figure 17",
                      "H200 thermal and throttling heatmaps");

    std::vector<core::ExperimentConfig> configs;
    for (const auto& par :
         {parallel::ParallelConfig::forWorld(32, 8, 4),
          parallel::ParallelConfig::forWorld(32, 4, 8),
          parallel::ParallelConfig::forWorld(32, 2, 16)}) {
        auto cfg = benchutil::sweepConfig(core::h200Cluster(),
                                          model::gpt3_175b(), par);
        cfg.train.actRecompute = true;
        cfg.warmupIterations = 2; // reach thermal steady state
        configs.push_back(cfg);
    }
    auto rows = benchutil::runSweep(configs, flags);

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i].result;
        if (!r.feasible)
            continue;
        std::printf("=== GPT3-175B %s ===\n",
                    configs[i].par.label().c_str());
        printHeatmap("(a) average temperature (C):", r, false, 4, 8);
        printHeatmap("(b) normalized throttle ratio (0..1):", r,
                     true, 4, 8);
        double front = 0.0, rear = 0.0;
        for (int n = 0; n < 4; ++n) {
            for (int g = 0; g < 8; g += 2) {
                front += r.gpus[static_cast<std::size_t>(n * 8 + g)]
                             .avgTempC;
                rear += r.gpus[static_cast<std::size_t>(n * 8 + g +
                                                        1)]
                            .avgTempC;
            }
        }
        front /= 16.0;
        rear /= 16.0;
        std::printf("front-row mean %.1f C, rear-row mean %.1f C "
                    "(differential %.0f%%)\n\n",
                    front, rear, 100.0 * (rear - front) / front);
    }
    return 0;
}
