/**
 * @file
 * Regenerates paper Figure 8: kernel latency breakdown for the
 * 1-GPU-per-node setup across four nodes (uniform interconnect, no
 * PCIe/NIC sharing), using the reduced models GPT3-13B and
 * Mixtral-4x7B.
 *
 * Expected shape: PP-heavy layouts have tiny communication time even
 * on this balanced network; TP-heavy layouts remain bottlenecked by
 * network bandwidth with >10x higher communication time; the MoE
 * model's expert all-to-all keeps communication around half of total
 * latency.
 */

#include "bench_util.hh"

using namespace charllm;

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner("Figure 8",
                      "1-GPU-per-node kernel latency breakdown");

    auto cluster =
        core::oneGpuPerNodeCluster(core::h200Cluster(), 4);
    std::vector<core::ExperimentConfig> configs;
    struct Case
    {
        int tp, pp, ep;
    };
    for (const auto& m :
         {model::gpt3_13b(), model::mixtral_4x7b()}) {
        for (const auto& c :
             std::vector<Case>{{1, 4, 1}, {2, 2, 1}, {4, 1, 1},
                               {1, 1, 4}}) {
            if (c.ep > 1 && !m.isMoe())
                continue;
            auto par = parallel::ParallelConfig::forWorld(
                4, c.tp, c.pp, m.isMoe() && c.tp * c.pp < 4
                                   ? core::maxExpertParallel(
                                         m, 4 / (c.tp * c.pp))
                                   : 1);
            auto cfg = benchutil::sweepConfig(cluster, m, par);
            cfg.train.actRecompute = true;
            configs.push_back(cfg);
        }
    }
    benchutil::printBreakdown(
        "Per-rank-mean kernel time per iteration (shares of total):",
        benchutil::runSweep(configs, flags));
    return 0;
}
