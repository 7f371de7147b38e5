/**
 * @file
 * Regenerates paper Figure 15: per-rank kernel latency breakdown on
 * the H200 cluster for GPT3-175B with microbatch size 1 (top) vs 4
 * (bottom), across parallelism configurations.
 *
 * Expected shape: at mb=1, communication dominates TP-heavy setups
 * with strong skew across ranks; mb=4 improves execution uniformity
 * and gives TP8-FSDP a >3x step-time gain, while PP-heavy setups see
 * communication (SendRecv/AllReduce) grow into the bottleneck.
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.hh"
#include "common/strings.hh"

using namespace charllm;

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner("Figure 15",
                      "GPT3-175B kernel breakdown, microbatch 1 vs 4 "
                      "(H200, act enabled)");

    auto cluster = core::h200Cluster();
    const auto pars = core::paperConfigs(model::gpt3_175b(), cluster);
    std::vector<core::ExperimentConfig> configs;
    for (int mb : {1, 4}) {
        for (const auto& par : pars) {
            auto cfg = benchutil::sweepConfig(
                cluster, model::gpt3_175b(), par);
            cfg.train.actRecompute = true;
            cfg.train.microbatchSize = mb;
            configs.push_back(cfg);
        }
    }
    auto all = benchutil::runSweep(configs, flags);

    for (std::size_t first = 0; first < all.size(); first += pars.size()) {
        auto begin = all.begin() + static_cast<std::ptrdiff_t>(first);
        std::vector<benchutil::SweepRow> rows(
            begin, begin + static_cast<std::ptrdiff_t>(pars.size()));
        std::printf("--- microbatch %d ---\n",
                    configs[first].train.microbatchSize);
        benchutil::printBreakdown("Per-rank-mean kernel time:", rows);
        // Comm-time skew across ranks (max/min of comm share).
        TextTable t({"config", "comm-skew (max/min across ranks)"});
        for (const auto& row : rows) {
            if (!row.result.feasible) {
                t.addRow({row.variant, "OOM"});
                continue;
            }
            double lo = 1e30, hi = 0.0;
            for (const auto& gpu : row.result.gpus) {
                double comm = gpu.breakdown.commTotal();
                lo = std::min(lo, comm);
                hi = std::max(hi, comm);
            }
            t.addRow({row.variant,
                      strprintf("%.1fx", lo > 1e-9 ? hi / lo : 0.0)});
        }
        t.print();
        std::printf("\n");
    }
    return 0;
}
