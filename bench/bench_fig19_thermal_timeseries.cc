/**
 * @file
 * Regenerates paper Figure 19: thermal and power change over time for
 * GPT and Mixtral training workloads, contrasting a front (intake)
 * GPU with the rear (exhaust) GPU directly downstream of it.
 *
 * Expected shape: persistent temperature imbalance between the pair
 * for the whole run, power fluctuating with execution phases, and no
 * cooldown periods.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/strings.hh"

using namespace charllm;

namespace {

void
printCase(const core::ExperimentConfig& cfg,
          const core::ExperimentResult& r)
{
    const auto& m = cfg.model;
    const auto& par = cfg.par;
    if (!r.feasible) {
        std::printf("%s %s: OOM\n", m.name.c_str(),
                    par.label().c_str());
        return;
    }
    std::printf("=== %s %s (front GPU 0 vs rear GPU 1) ===\n",
                m.name.c_str(), par.label().c_str());
    TextTable t({"t(s)", "P front(W)", "P rear(W)", "T front(C)",
                 "T rear(C)", "dT(C)"});
    const auto& front = r.series[0];
    const auto& rear = r.series[1];
    std::size_t step = std::max<std::size_t>(1, front.size() / 28);
    for (std::size_t i = 0; i < front.size(); i += step) {
        t.addRow({formatFixed(front[i].time.value(), 1),
                  formatFixed(front[i].powerWatts.value(), 0),
                  formatFixed(rear[i].powerWatts.value(), 0),
                  formatFixed(front[i].tempC.value(), 1),
                  formatFixed(rear[i].tempC.value(), 1),
                  formatFixed(
                      (rear[i].tempC - front[i].tempC).value(), 1)});
    }
    t.print();
    std::printf("\n");
}

} // namespace

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner("Figure 19",
                      "Thermal/power time series: front vs rear GPU");
    std::vector<core::ExperimentConfig> configs;
    for (const auto& [m, par] :
         {std::pair{model::gpt3_175b(),
                    parallel::ParallelConfig::forWorld(32, 4, 8)},
          std::pair{model::mixtral_8x22b(),
                    parallel::ParallelConfig::forWorld(32, 1, 4, 8)}}) {
        auto cfg = benchutil::sweepConfig(core::h200Cluster(), m, par);
        cfg.train.actRecompute = true;
        cfg.warmupIterations = 0; // show the warm-up transient too
        cfg.measuredIterations = 2;
        cfg.enableSampler = true;
        cfg.samplePeriodSec = 0.25;
        configs.push_back(cfg);
    }
    auto rows = benchutil::runSweep(configs, flags);
    for (std::size_t i = 0; i < rows.size(); ++i)
        printCase(configs[i], rows[i].result);
    return 0;
}
