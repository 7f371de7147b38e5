/**
 * @file
 * Regenerates paper Table 1: the evaluated model configurations, with
 * parameter counts recomputed from the architecture analytics (the
 * reproduction's sanity anchor against the published sizes).
 */

#include "bench_util.hh"
#include "common/strings.hh"
#include "model/analytics.hh"

using namespace charllm;

int
main(int argc, char** argv)
{
    // Nothing is simulated: flags are parsed for --help/strictness.
    benchutil::sweepFlags(argc, argv);
    benchutil::banner("Table 1", "Evaluated model configurations");

    TextTable t({"Model", "Type", "Params", "Layers", "Hidden",
                 "Heads", "KV groups", "FFN", "Seq", "Experts"});
    auto add = [&](const model::TransformerConfig& cfg) {
        model::ModelAnalytics a(cfg);
        t.addRow({cfg.name,
                  cfg.isMoe() ? "Mixture-of-Experts" : "Dense",
                  strprintf("%.1fB", a.totalParams() / 1e9),
                  std::to_string(cfg.numLayers),
                  std::to_string(cfg.hiddenSize),
                  std::to_string(cfg.numHeads),
                  std::to_string(cfg.numQueryGroups),
                  std::to_string(cfg.ffnHiddenSize),
                  std::to_string(cfg.seqLength),
                  cfg.isMoe() ? strprintf("%dx top-%d", cfg.numExperts,
                                          cfg.topK)
                              : std::string("-")});
    };
    for (const model::TransformerConfig& cfg : model::table1Models())
        add(cfg);
    t.addSeparator();
    // Reduced variants used by the Fig. 8 single-GPU-per-node study.
    add(model::gpt3_13b());
    add(model::mixtral_4x7b());
    t.print();
    return 0;
}
