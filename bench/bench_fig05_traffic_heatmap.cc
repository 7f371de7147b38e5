/**
 * @file
 * Regenerates paper Figure 5: per-GPU total NVLink and PCIe traffic
 * distribution on the HGX H200 cluster during training, printed as
 * node x GPU grids (GB per iteration).
 *
 * Expected shape: TP-heavy / expert-spanning layouts push tens of GB
 * through NVLink and load every PCIe port; PP-heavy layouts
 * concentrate PCIe traffic on the stage-boundary GPUs.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/strings.hh"

using namespace charllm;

namespace {

void
printGrid(const char* title, const core::ExperimentResult& r,
          bool pcie)
{
    std::printf("%s (GB per iteration per GPU)\n", title);
    TextTable t({"node", "gpu0", "gpu1", "gpu2", "gpu3", "gpu4",
                 "gpu5", "gpu6", "gpu7"});
    for (int node = 0; node < 4; ++node) {
        std::vector<std::string> row = {std::to_string(node)};
        for (int g = 0; g < 8; ++g) {
            const auto& gpu =
                r.gpus[static_cast<std::size_t>(node * 8 + g)];
            double bytes = pcie ? gpu.pcieBytes : gpu.scaleUpBytes;
            row.push_back(formatFixed(bytes / 1e9, 1));
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
    benchutil::banner("Figure 5",
                      "Per-GPU NVLink and PCIe traffic, H200 cluster");

    std::vector<core::ExperimentConfig> configs;
    for (const auto& [m, par] :
         {std::pair{model::gpt3_175b(),
                    parallel::ParallelConfig::forWorld(32, 8, 4)},
          std::pair{model::gpt3_175b(),
                    parallel::ParallelConfig::forWorld(32, 2, 16)},
          std::pair{model::mixtral_8x22b(),
                    parallel::ParallelConfig::forWorld(32, 4, 4, 2)},
          std::pair{model::mixtral_8x22b(),
                    parallel::ParallelConfig::forWorld(32, 1, 4, 8)}}) {
        auto cfg = benchutil::sweepConfig(core::h200Cluster(), m, par);
        cfg.train.actRecompute = true;
        configs.push_back(cfg);
    }
    auto rows = benchutil::runSweep(configs, flags);

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i].result;
        std::printf("=== %s %s ===\n", configs[i].model.name.c_str(),
                    configs[i].par.label().c_str());
        if (!r.feasible) {
            std::printf("OOM\n\n");
            continue;
        }
        printGrid("NVLink", r, false);
        printGrid("PCIe", r, true);
        std::printf("\n");
    }
    std::printf(
        "Expected: Mixtral with TP4 (EP spanning nodes) shows the\n"
        "largest PCIe volumes on every GPU; EP8-TP1 keeps traffic on\n"
        "NVLink; TP2-PP16 concentrates PCIe on boundary GPUs.\n");
    return 0;
}
