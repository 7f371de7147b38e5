/**
 * @file
 * Ablation: topology-aware collectives (the paper's Sec. 4.2
 * recommendation, implemented in coll::CollectiveEngine). Node-
 * spanning data-parallel gradient rings are run flat vs.
 * hierarchically (intra-node reduce-scatter, inter-node shard
 * exchange, intra-node all-gather), quantifying how much of the
 * paper's observed cross-node inefficiency a topology-aware
 * collective recovers.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/strings.hh"

using namespace charllm;

namespace {

/** Render one case from its flat and topology-aware rows. */
void
printCase(const char* name, const benchutil::SweepRow* rows)
{
    std::printf("=== %s ===\n", name);
    TextTable t({"collectives", "iter(s)", "tokens/s", "AllReduce+RS "
                                                       "time(s)",
                 "speedup"});
    double base_tput = 0.0;
    for (bool aware : {false, true}) {
        const auto& r = rows[aware ? 1 : 0].result;
        if (!r.feasible) {
            std::printf("OOM\n");
            return;
        }
        if (!aware)
            base_tput = r.tokensPerSecond;
        double ring_time =
            r.meanBreakdown[hw::KernelClass::AllReduce] +
            r.meanBreakdown[hw::KernelClass::ReduceScatter] +
            r.meanBreakdown[hw::KernelClass::AllGather];
        t.addRow({aware ? "hierarchical (topology-aware)"
                        : "flat rings",
                  formatFixed(r.avgIterationSeconds, 2),
                  formatFixed(r.tokensPerSecond, 0),
                  formatFixed(ring_time, 2),
                  strprintf("%+.1f%%", 100.0 * (r.tokensPerSecond /
                                                    base_tput -
                                                1.0))});
    }
    t.print();
    std::printf("\n");
}

} // namespace

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner("Ablation",
                      "Topology-aware (hierarchical) collectives");

    std::vector<core::ExperimentConfig> configs;
    auto add = [&configs](const core::ClusterSpec& cluster,
                          const model::TransformerConfig& m,
                          const parallel::ParallelConfig& par,
                          bool zero1) {
        for (bool aware : {false, true}) {
            auto cfg = benchutil::sweepConfig(cluster, m, par);
            cfg.train.zero1 = zero1;
            cfg.train.topologyAwareCollectives = aware;
            configs.push_back(cfg);
        }
    };
    // FSDP: per-microbatch gathers/scatters over node-spanning rings.
    add(core::h200Cluster(2), model::gpt3_13b(),
        parallel::ParallelConfig::forWorld(16, 2, 1, 1, true), false);
    // ZeRO-1 variant: reduce-scatter + all-gather rings.
    add(core::h200Cluster(2), model::gpt3_13b(),
        parallel::ParallelConfig::forWorld(16, 1, 1), true);
    // TP2 x DP16 spanning all four nodes.
    add(core::h200Cluster(4), model::gpt3_30b(),
        parallel::ParallelConfig::forWorld(32, 2, 1), true);
    auto rows = benchutil::runSweep(configs, flags);
    printCase("GPT3-13B TP2-FSDP8 on 2 nodes", &rows[0]);
    printCase("GPT3-13B TP1-DP16 on 2 nodes (ZeRO-1)", &rows[2]);
    printCase("GPT3-30B TP2-DP16 on 4 nodes (ZeRO-1)", &rows[4]);

    std::printf(
        "Expected: hierarchical execution shortens the node-spanning\n"
        "gradient collectives (less NIC volume, fewer inter-node\n"
        "latency steps) and lifts end-to-end throughput; gains grow\n"
        "with the number of ranks sharing each node.\n");
    return 0;
}
