/**
 * @file
 * Ablation: interleaved pipeline scheduling (Megatron virtual
 * stages), the third optimization the paper lists alongside act and
 * cc. Interleaving shrinks the pipeline bubble from (pp-1)/(m+pp-1)
 * toward (pp-1)/(v*m+pp-1) at the cost of v times more boundary
 * SendRecv — so its benefit depends on the microbatch count and on
 * network depth, exactly as the paper notes (Sec. 1: "its
 * effectiveness depends on network depth and synchronization
 * barriers").
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/strings.hh"

using namespace charllm;

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner("Ablation",
                      "Interleaved (virtual-stage) pipeline "
                      "scheduling, GPT3-30B TP2-PP8, H200");

    auto cluster = core::h200Cluster();
    auto m = model::gpt3_30b(); // 48 layers: divisible by 8*v, v<=3
    auto par = parallel::ParallelConfig::forWorld(32, 2, 8); // dp 2

    std::vector<core::ExperimentConfig> configs;
    for (int mbsize : {8, 4, 1}) {
        for (int v : {1, 2, 3}) {
            auto cfg = benchutil::sweepConfig(cluster, m, par);
            cfg.train.microbatchSize = mbsize;
            cfg.train.virtualStages = v;
            if (128 / par.dp / mbsize % par.pp == 0)
                configs.push_back(cfg);
        }
    }
    auto rows = benchutil::runSweep(configs, flags);

    TextTable t({"microbatches/replica", "v (chunks)", "bubble",
                 "iter(s)", "tokens/s", "SendRecv(s)", "speedup"});
    double base_tput = 0.0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i].result;
        int v = configs[i].train.virtualStages;
        int replica_mb = 128 / par.dp / configs[i].train.microbatchSize;
        if (v == 1)
            base_tput = r.feasible ? r.tokensPerSecond : 0.0;
        if (r.feasible) {
            double p = par.pp, mm = replica_mb;
            t.addRow({std::to_string(replica_mb), std::to_string(v),
                      strprintf("%.1f%%", 100.0 * (p - 1.0) /
                                              (v * mm + p - 1.0)),
                      formatFixed(r.avgIterationSeconds, 2),
                      formatFixed(r.tokensPerSecond, 0),
                      formatFixed(
                          r.meanBreakdown[hw::KernelClass::SendRecv],
                          2),
                      strprintf("%+.1f%%",
                                100.0 * (r.tokensPerSecond /
                                             base_tput -
                                         1.0))});
        }
        if (v == 3)
            t.addSeparator();
    }
    t.print();
    std::printf(
        "\nExpected: interleaving pays off when the bubble is large\n"
        "(few microbatches per replica) and fades — or reverses, via\n"
        "the extra boundary SendRecv — when the pipeline is already\n"
        "well filled.\n");
    return 0;
}
