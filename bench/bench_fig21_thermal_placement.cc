/**
 * @file
 * Regenerates paper Figure 21: GPU power, temperature, and training
 * efficiency of thermal-aware pipeline-stage placement, normalized to
 * the baseline consecutive-device placement.
 *
 * Setup mirrors Sec. 6: TP4 stages (2 per node), DP disabled.
 * Llama3-70B runs 4 stages on 2 nodes (the paper's 19/21 split);
 * GPT3-175B runs 8 stages on 4 nodes (11/13 split). A delta=2 GPT
 * variant shows the over-skew regime where asymmetry backfires.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/strings.hh"
#include "core/thermal_placement.hh"

using namespace charllm;

namespace {

/** One placement study: TP4 stages of @c m on @c cluster. */
struct Study
{
    model::TransformerConfig m;
    core::ClusterSpec cluster;
    int pp;
    std::vector<int> deltas;
};

/** @p rows: baseline, symmetric, then one asymmetric row per delta. */
void
printStudy(const Study& s, const benchutil::SweepRow* rows)
{
    const auto& m = s.m;
    const auto& base = rows[0].result;
    if (!base.feasible) {
        std::printf("%s: baseline OOM\n", m.name.c_str());
        return;
    }

    std::printf("=== %s (%d stages of TP4 on %d nodes) ===\n",
                m.name.c_str(), s.pp, s.cluster.numNodes);
    TextTable t({"placement", "layers/stage", "eff vs base",
                 "avgP(W)", "pkT(C)", "throttle", "temp gap(C)"});
    auto temp_gap = [](const core::ExperimentResult& r) {
        double lo = 1e30, hi = -1e30;
        for (const auto& g : r.gpus) {
            lo = std::min(lo, g.avgTempC);
            hi = std::max(hi, g.avgTempC);
        }
        return hi - lo;
    };
    auto add = [&](const std::string& name,
                   const std::string& layers,
                   const core::ExperimentResult& r) {
        t.addRow({name, layers,
                  strprintf("%+.1f%%", 100.0 * (r.tokensPerSecond /
                                                    base.tokensPerSecond -
                                                1.0)),
                  formatFixed(r.avgPowerW, 0),
                  formatFixed(r.peakTempC, 1),
                  formatFixed(100.0 * r.throttleRatio, 1) + "%",
                  formatFixed(temp_gap(r), 1)});
    };
    int base_layers = m.numLayers / s.pp;
    add("baseline (consecutive ids)", std::to_string(base_layers), base);
    add("symmetric (cold/hot stages)", std::to_string(base_layers),
        rows[1].result);
    for (std::size_t d = 0; d < s.deltas.size(); ++d) {
        add(strprintf("asymmetric (delta=%d)", s.deltas[d]),
            strprintf("%d/%d", base_layers + s.deltas[d],
                      base_layers - s.deltas[d]),
            rows[2 + d].result);
    }
    t.print();
    std::printf("\n");
}

} // namespace

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner("Figure 21",
                      "Thermal-aware pipeline stage placement");
    const std::vector<Study> studies = {
        {model::llama3_70b(), core::h200Cluster(2), 4, {1}},
        {model::gpt3_175b(), core::h200Cluster(4), 8, {1, 2}},
    };
    // The placement plan does not depend on the baseline's result.
    std::vector<core::ExperimentConfig> configs;
    for (const auto& s : studies) {
        auto par = parallel::ParallelConfig::forWorld(
            s.cluster.numGpus(), 4, s.pp);
        auto plan = core::coldFirstPlacement(s.cluster, par);
        auto cfg = benchutil::sweepConfig(s.cluster, s.m, par);
        cfg.train.actRecompute = true;
        cfg.warmupIterations = 2;
        configs.push_back(cfg);
        cfg.devicePermutation = plan.devicePermutation;
        configs.push_back(cfg);
        for (int delta : s.deltas) {
            cfg.train.stageLayers =
                core::asymmetricStageLayers(plan, s.m.numLayers, delta);
            configs.push_back(cfg);
        }
    }
    auto rows = benchutil::runSweep(configs, flags);
    const benchutil::SweepRow* next = rows.data();
    for (const auto& s : studies) {
        printStudy(s, next);
        next += 2 + s.deltas.size();
    }
    std::printf(
        "Expected: symmetric placement gains a few percent by\n"
        "isolating thermal effects; asymmetric allocation helps when\n"
        "the layer skew matches the hot stages' throttle deficit and\n"
        "backfires when it over-shoots (delta=2), while always\n"
        "narrowing the temperature gap.\n");
    return 0;
}
