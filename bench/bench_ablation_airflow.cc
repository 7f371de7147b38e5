/**
 * @file
 * Ablation: airflow-induced thermal imbalance. The same training run
 * is executed on (a) the real front-to-back chassis and (b) a
 * counterfactual uniformly-cooled chassis (no preheat coupling),
 * isolating how much throughput the paper's rear-GPU throttling
 * costs — and showing that thermal-aware placement only matters when
 * the imbalance exists.
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.hh"
#include "common/strings.hh"
#include "core/thermal_placement.hh"

using namespace charllm;

namespace {

core::ClusterSpec
uniformlyCooled(core::ClusterSpec cluster)
{
    cluster.name += "-uniform";
    for (auto& slot : cluster.chassis.slots) {
        slot.upstream.clear();
        slot.airflowRow = 0;
        slot.resistanceScale = 1.0;
    }
    return cluster;
}

core::ExperimentConfig
config(const core::ClusterSpec& cluster,
       const std::vector<int>& perm = {})
{
    auto cfg = benchutil::sweepConfig(
        cluster, model::gpt3_175b(),
        parallel::ParallelConfig::forWorld(32, 4, 8));
    cfg.train.actRecompute = true;
    cfg.warmupIterations = 2;
    cfg.devicePermutation = perm;
    return cfg;
}

} // namespace

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner("Ablation",
                      "Airflow preheat vs counterfactual uniform "
                      "cooling (GPT3-175B TP4-PP8, H200)");

    auto real = core::h200Cluster();
    auto uniform = uniformlyCooled(core::h200Cluster());
    auto par = parallel::ParallelConfig::forWorld(32, 4, 8);
    auto plan = core::coldFirstPlacement(real, par);

    auto rows = benchutil::runSweep(
        {config(real), config(real, plan.devicePermutation),
         config(uniform), config(uniform, plan.devicePermutation)},
        flags);

    TextTable t({"chassis", "placement", "tokens/s", "temp gap(C)",
                 "throttle"});
    auto row = [&](const char* chassis, const char* place,
                   const core::ExperimentResult& r) {
        double lo = 1e30, hi = -1e30;
        for (const auto& g : r.gpus) {
            lo = std::min(lo, g.avgTempC);
            hi = std::max(hi, g.avgTempC);
        }
        t.addRow({chassis, place, formatFixed(r.tokensPerSecond, 0),
                  formatFixed(hi - lo, 1),
                  formatFixed(100.0 * r.throttleRatio, 1) + "%"});
    };
    row("front-to-back airflow", "baseline", rows[0].result);
    row("front-to-back airflow", "thermal-aware", rows[1].result);
    row("uniform cooling", "baseline", rows[2].result);
    row("uniform cooling", "thermal-aware", rows[3].result);
    t.print();

    auto tput = [&rows](std::size_t i) {
        return rows[i].result.tokensPerSecond;
    };
    std::printf(
        "\nImbalance cost: %.1f%% throughput lost to airflow preheat.\n"
        "Placement gain with imbalance: %+.1f%%; without: %+.1f%%\n"
        "(thermal-aware scheduling only pays off when the physical\n"
        "imbalance it exploits exists).\n",
        100.0 * (tput(2) / tput(0) - 1.0),
        100.0 * (tput(1) / tput(0) - 1.0),
        100.0 * (tput(3) / tput(2) - 1.0));
    return 0;
}
