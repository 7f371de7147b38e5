/**
 * @file
 * Regenerates paper Figure 6: aggregate PCIe throughput over time
 * across the 8 GPUs of one H200 node during GPT3-175B training, for
 * TP8-PP4 (left) vs TP2-PP16 (right).
 *
 * Expected shape: TP8-PP4 shows many sparse, low-rate bursts (small
 * un-chunked SendRecv slices sharing the node NIC); TP2-PP16 moves
 * larger chunks over fewer endpoints, with taller, cleaner bursts and
 * better effective utilization.
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.hh"
#include "common/strings.hh"

using namespace charllm;

namespace {

void
printCase(const parallel::ParallelConfig& par,
          const core::ExperimentResult& r)
{
    if (!r.feasible) {
        std::printf("%s: OOM\n", par.label().c_str());
        return;
    }

    // Aggregate node-0 PCIe rate over the measured window; bucket to
    // ~40 printable rows.
    std::vector<double> times, rates;
    const auto& ref = r.series[0];
    for (std::size_t i = 0; i < ref.size(); ++i) {
        if (ref[i].time.value() < r.measureStartSec)
            continue;
        double sum = 0.0;
        for (int g = 0; g < 8; ++g)
            sum += r.series[static_cast<std::size_t>(g)][i]
                       .pcieRate.value();
        times.push_back(ref[i].time.value() - r.measureStartSec);
        rates.push_back(sum);
    }
    std::size_t buckets = 40;
    std::size_t per = std::max<std::size_t>(1, times.size() / buckets);
    double peak = 1.0;
    for (double v : rates)
        peak = std::max(peak, v);

    std::printf("=== %s — aggregate node-0 PCIe throughput ===\n",
                par.label().c_str());
    std::printf("(iteration %.1f s; peak %.2f GB/s)\n",
                r.avgIterationSeconds, peak / 1e9);
    double busy = 0.0, total = 0.0;
    for (std::size_t b = 0; b * per < times.size(); ++b) {
        double avg = 0.0;
        std::size_t n = 0;
        for (std::size_t i = b * per;
             i < std::min(times.size(), (b + 1) * per); ++i) {
            avg += rates[i];
            ++n;
        }
        avg /= static_cast<double>(n);
        total += 1.0;
        if (avg > 0.02 * peak)
            busy += 1.0;
        int bars = static_cast<int>(40.0 * avg / peak);
        std::printf("t=%6.2fs %7.2f GB/s |%s\n", times[b * per],
                    avg / 1e9, std::string(
                        static_cast<std::size_t>(bars), '#').c_str());
    }
    std::printf("busy fraction: %.0f%%\n\n",
                100.0 * busy / std::max(total, 1.0));
}

} // namespace

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner("Figure 6",
                      "Aggregate PCIe throughput over time (node 0, "
                      "GPT3-175B)");
    std::vector<core::ExperimentConfig> configs;
    for (const auto& par :
         {parallel::ParallelConfig::forWorld(32, 8, 4),
          parallel::ParallelConfig::forWorld(32, 2, 16)}) {
        auto cfg = benchutil::sweepConfig(core::h200Cluster(),
                                          model::gpt3_175b(), par);
        cfg.train.actRecompute = true;
        cfg.enableSampler = true;
        cfg.samplePeriodSec = 0.02;
        configs.push_back(cfg);
    }
    auto rows = benchutil::runSweep(configs, flags);
    for (std::size_t i = 0; i < rows.size(); ++i)
        printCase(configs[i].par, rows[i].result);
    return 0;
}
