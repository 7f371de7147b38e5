/**
 * @file
 * Regenerates paper Figure 3: time across kernels for GPT3-175B
 * training with all optimizations enabled, on 32xH200 and 64xH100.
 * The paper's figure shows per-rank kernel time with heavy skew in
 * communication time across ranks for TP8-PP4 (PCIe/NIC contention);
 * we print per-class totals plus the min/median/max across ranks.
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
    benchutil::banner(
        "Figure 3",
        "Per-kernel time, GPT3-175B, all optimizations enabled");

    std::vector<core::ExperimentConfig> configs;
    for (const auto& cluster :
         {core::h200Cluster(), core::h100Cluster()}) {
        for (const auto& par :
             core::paperConfigs(model::gpt3_175b(), cluster)) {
            if (par.fsdp)
                continue; // the paper's Fig. 3 shows TP-PP layouts
            auto cfg = benchutil::sweepConfig(
                cluster, model::gpt3_175b(), par);
            cfg.train.actRecompute = true;
            cfg.train.ccOverlap = true;
            configs.push_back(cfg);
        }
    }
    auto rows = benchutil::runSweep(configs, flags);

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& cfg = configs[i];
        const auto& r = rows[i].result;
        if (i == 0 || cfg.cluster.name != configs[i - 1].cluster.name)
            std::printf("--- %d x %s ---\n", cfg.cluster.numGpus(),
                        cfg.cluster.gpu.name.c_str());
        if (!r.feasible) {
            std::printf("%s: OOM\n\n", cfg.par.label().c_str());
            continue;
        }
        std::printf("%s (iteration %.2f s)\n", cfg.par.label().c_str(),
                    r.avgIterationSeconds);
        TextTable t({"kernel class", "rank-mean", "rank-min",
                     "rank-max", "skew(max/min)"});
        for (std::size_t k = 0; k < hw::kNumKernelClasses; ++k) {
            auto cls = static_cast<hw::KernelClass>(k);
            double mean = r.meanBreakdown[cls];
            if (mean <= 1e-6)
                continue;
            double lo = 1e30, hi = 0.0;
            for (const auto& g : r.gpus) {
                lo = std::min(lo, g.breakdown[cls]);
                hi = std::max(hi, g.breakdown[cls]);
            }
            t.addRow({hw::kernelClassName(cls),
                      benchutil::fmtSec(mean), benchutil::fmtSec(lo),
                      benchutil::fmtSec(hi),
                      lo > 1e-6 ? strprintf("%.1fx", hi / lo)
                                : std::string("inf")});
        }
        t.print();
        std::printf("\n");
    }
    std::printf(
        "Expected shape: compute dominates (>50%%) for this dense\n"
        "model; communication (SendRecv/AllReduce) skews across ranks\n"
        "most strongly under TP8-PP4, where TP slices share PCIe/NIC\n"
        "paths at stage boundaries.\n");
    return 0;
}
