/**
 * @file
 * Regenerates paper Figure 11: kernel latency breakdown for
 * Llama3-70B training across pipeline-parallel ranks, without (top)
 * and with (bottom) compute-communication overlap.
 *
 * Expected shape: cc-overlap replaces part of the exposed AllReduce
 * time with overlapped execution, but compute kernel durations grow
 * (resource contention), so the end-to-end gain is partial.
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
    std::printf("=== %s %s (iteration %.2f s) ===\n",
                cfg.par.label().c_str(),
                cfg.train.ccOverlap ? "+cc" : "(no overlap)",
                r.avgIterationSeconds);
    TextTable t({"pp rank", "compute", "AllReduce", "SendRecv",
                 "total"});
    for (int stage = 0; stage < 8; ++stage) {
        // dp == 1: stage s occupies devices [4s, 4s+4).
        hw::KernelTimeBreakdown b;
        for (int tp = 0; tp < 4; ++tp)
            b.merge(r.gpus[static_cast<std::size_t>(stage * 4 + tp)]
                        .breakdown);
        for (double& s : b.seconds)
            s /= 4.0;
        t.addRow({std::to_string(stage),
                  benchutil::fmtSec(b.computeTotal()),
                  benchutil::fmtSec(b[hw::KernelClass::AllReduce]),
                  benchutil::fmtSec(b[hw::KernelClass::SendRecv]),
                  benchutil::fmtSec(b.total())});
    }
    t.print();
    std::printf("\n");
}

} // namespace

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner("Figure 11",
                      "Llama3-70B per-pipeline-rank breakdown, "
                      "without vs with cc-overlap");
    std::vector<core::ExperimentConfig> configs;
    for (bool cc : {false, true}) {
        auto cfg = benchutil::sweepConfig(
            core::h200Cluster(), model::llama3_70b(),
            parallel::ParallelConfig::forWorld(32, 4, 8));
        cfg.train.actRecompute = true;
        cfg.train.ccOverlap = cc;
        configs.push_back(cfg);
    }
    auto rows = benchutil::runSweep(configs, flags);
    for (std::size_t i = 0; i < rows.size(); ++i)
        printCase(configs[i], rows[i].result);
    return 0;
}
