/**
 * @file
 * Regenerates paper Figure 2: training throughput (top) and energy
 * efficiency (bottom) for the 64xH100 scale-out cluster vs. the
 * 32xH200 scale-up cluster, across models, parallelism settings, and
 * optimizations (Base / +act / +cc).
 *
 * Expected shape: H100 wins throughput for compute-bound models
 * (Llama3-70B, Mixtral-8x7B); for communication-bound models
 * (GPT3-175B, Mixtral-8x22B) the gap narrows and H200 matches or wins
 * on energy efficiency — decisively so for Mixtral-8x22B, whose best
 * expert-local configuration does not even fit on the H100 cluster.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/strings.hh"

using namespace charllm;

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner("Figure 2",
                      "Scale-up (32xH200) vs scale-out (64xH100)");

    std::vector<model::TransformerConfig> models = {
        model::gpt3_175b(), model::llama3_70b(),
        model::mixtral_8x22b(), model::mixtral_8x7b()};
    std::vector<core::ExperimentConfig> configs;
    for (const auto& cluster :
         {core::h200Cluster(), core::h100Cluster()}) {
        for (const auto& m : models) {
            for (const auto& par : core::paperConfigs(m, cluster)) {
                auto base = benchutil::sweepConfig(cluster, m, par);
                auto act = base;
                act.train.actRecompute = true;
                auto cc = base;
                cc.train.ccOverlap = true;
                configs.push_back(base);
                configs.push_back(act);
                configs.push_back(cc);
            }
        }
    }
    auto rows = benchutil::runSweep(configs, flags);

    for (std::size_t i = 0; i < rows.size();) {
        const auto& cluster = configs[i].cluster;
        std::printf("--- %d x %s ---\n", cluster.numGpus(),
                    cluster.gpu.name.c_str());
        TextTable t({"model", "config", "variant", "tokens/s",
                     "tokens/J"});
        std::string last_model;
        for (; i < rows.size() &&
               configs[i].cluster.name == cluster.name;
             ++i) {
            const auto& cfg = configs[i];
            const auto& r = rows[i].result;
            if (!last_model.empty() && cfg.model.name != last_model)
                t.addSeparator();
            last_model = cfg.model.name;
            const char* vname = cfg.train.actRecompute ? "act"
                                : cfg.train.ccOverlap  ? "cc"
                                                       : "Base";
            if (!r.feasible) {
                t.addRow({cfg.model.name, cfg.par.label(), vname,
                          "OOM", "OOM"});
                continue;
            }
            t.addRow({cfg.model.name, cfg.par.label(), vname,
                      formatFixed(r.tokensPerSecond, 0),
                      formatFixed(r.tokensPerJoule, 3)});
        }
        t.print();
        std::printf("\n");
    }

    std::printf(
        "Reading guide: compare the best row per model across the two\n"
        "clusters. Compute-bound models favor the H100 cluster's\n"
        "aggregate FLOPs; Mixtral-8x22B favors H200, whose memory\n"
        "admits the node-local EP8-TP1-PP4 layout (OOM on H100).\n");
    return 0;
}
