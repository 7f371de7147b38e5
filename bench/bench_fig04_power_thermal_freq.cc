/**
 * @file
 * Regenerates paper Figure 4: GPU temperature, power, and frequency
 * for the H200 (top) and MI250 (bottom) clusters across models and
 * parallelism strategies, with activation recomputation enabling the
 * additional (otherwise OOM) configurations.
 *
 * Expected shape: deeper pipeline parallelism raises peak power and
 * peak temperature; TP-heavy MoE configurations that span nodes are
 * communication-bound and draw far less power; recomputation costs
 * efficiency wherever the baseline already fits.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace charllm;
using benchutil::sweepConfig;

namespace {

/** Each model's paper configs, plus the recompute variant where the
 *  base does not fit ("act" unlocks configurations that are OOM
 *  under stashing) and for deep PP generally. */
void
addConfigs(std::vector<core::ExperimentConfig>& configs,
           const core::ClusterSpec& cluster,
           const std::vector<model::TransformerConfig>& models)
{
    for (const auto& m : models) {
        for (const auto& par : core::paperConfigs(m, cluster)) {
            auto base = sweepConfig(cluster, m, par);
            configs.push_back(base);
            auto act = base;
            act.train.actRecompute = true;
            if (!core::Experiment::fits(base) || par.pp >= 16)
                configs.push_back(act);
        }
    }
}

} // namespace

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner("Figure 4",
                      "Power / temperature / frequency across models "
                      "and parallelism");

    std::vector<core::ExperimentConfig> configs;
    addConfigs(configs, core::h200Cluster(),
               {model::gpt3_175b(), model::llama3_70b(),
                model::mixtral_8x22b(), model::mixtral_8x7b()});
    const std::size_t h200_rows = configs.size();
    // MI250 runs the scaled-down ~30B models (Sec. 3.2).
    addConfigs(configs, core::mi250Cluster(),
               {model::gpt3_30b(), model::llama3_30b()});
    auto rows = benchutil::runSweep(configs, flags);
    auto split = rows.begin() + static_cast<std::ptrdiff_t>(h200_rows);

    std::printf("--- 32 x H200 ---\n");
    benchutil::printSystemMetrics({rows.begin(), split});
    std::printf("\n");
    std::printf("--- 32 x MI250 GCDs ---\n");
    benchutil::printSystemMetrics({split, rows.end()});
    return 0;
}
