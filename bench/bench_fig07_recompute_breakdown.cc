/**
 * @file
 * Regenerates paper Figure 7: per-kernel latency breakdown without
 * (left) and with (right) activation recomputation, per parallelism
 * configuration, for GPT3-175B and Mixtral-8x22B on the H200 cluster.
 *
 * Expected shape: dense GPT spends >50% of kernel time in compute;
 * Mixtral's SendRecv/AllToAll share collapses as TP width shrinks
 * (expert all-to-all localizes within nodes); recompute adds a
 * Recompute compute band and raises total kernel time everywhere.
 */

#include "bench_util.hh"

using namespace charllm;

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner("Figure 7",
                      "Kernel latency breakdown, without/with "
                      "activation recomputation (H200)");

    auto cluster = core::h200Cluster();
    std::vector<core::ExperimentConfig> configs;
    for (const auto& m :
         {model::gpt3_175b(), model::mixtral_8x22b()}) {
        for (const auto& par : core::paperConfigs(m, cluster)) {
            if (par.fsdp)
                continue;
            for (bool act : {false, true}) {
                auto cfg = benchutil::sweepConfig(cluster, m, par);
                cfg.train.actRecompute = act;
                configs.push_back(cfg);
            }
        }
    }
    benchutil::printBreakdown(
        "Per-rank-mean kernel time per iteration (shares of total):",
        benchutil::runSweep(configs, flags));
    return 0;
}
