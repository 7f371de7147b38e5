/**
 * @file
 * Regenerates paper Table 2: the impact of each parallelism /
 * optimization technique on training time (Perf), memory usage, and
 * communication intensity. Unlike the paper's qualitative arrows,
 * each row here is backed by a measured controlled comparison on the
 * simulator; the printed arrows are derived from the measured deltas.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/strings.hh"

using namespace charllm;
using benchutil::sweepConfig;

namespace {

struct Impact
{
    std::string technique;
    std::string abbr;
    std::string comparison;
    double perfDelta = 0.0; //!< relative throughput change
    double memDelta = 0.0;  //!< relative per-GPU memory change
    double commDelta = 0.0; //!< relative per-GPU wire-byte change
};

std::string
arrow(double delta, bool up_is_increase = true)
{
    double magnitude = std::abs(delta);
    if (magnitude < 0.05)
        return "-";
    bool up = delta > 0.0;
    if (!up_is_increase)
        up = !up;
    std::string a = up ? "UP" : "DOWN";
    return magnitude > 0.6 ? a + a : a;
}

double
commBytes(const core::ExperimentResult& r)
{
    // Cluster-total wire volume per iteration.
    double total = 0.0;
    for (const auto& g : r.gpus)
        total += g.pcieBytes + g.scaleUpBytes;
    return total;
}

/** One Table-2 row before measurement: a (base, with) config pair. */
struct Comparison
{
    std::string technique;
    std::string abbr;
    std::string what;
    core::ExperimentConfig base;
    core::ExperimentConfig with;
};

Impact
toImpact(const Comparison& c, const core::ExperimentResult& rb,
         const core::ExperimentResult& rw)
{
    Impact im;
    im.technique = c.technique;
    im.abbr = c.abbr;
    im.comparison = c.what;
    if (!rb.feasible || !rw.feasible)
        return im;
    im.perfDelta =
        rw.tokensPerSecond / rb.tokensPerSecond - 1.0;
    im.memDelta = rw.memory.total() / rb.memory.total() - 1.0;
    im.commDelta = commBytes(rw) / std::max(commBytes(rb), 1.0) - 1.0;
    return im;
}

} // namespace

int
main(int argc, char** argv)
{
    auto flags = benchutil::sweepFlags(argc, argv);
    benchutil::banner(
        "Table 2",
        "Evaluated parallelism and optimization techniques");

    auto h200 = core::h200Cluster();
    auto gpt = model::gpt3_30b();
    auto mix = model::mixtral_8x7b();
    std::vector<Comparison> comparisons;

    // Tensor parallelism: widen TP 1 -> 8 at fixed PP.
    comparisons.push_back(
        {"Tensor Parallelism", "TP", "TP1-PP4 -> TP8-PP4",
         sweepConfig(h200, gpt,
                     parallel::ParallelConfig::forWorld(32, 1, 4)),
         sweepConfig(h200, gpt,
                     parallel::ParallelConfig::forWorld(32, 8, 4))});

    // Pipeline parallelism: deepen PP 4 -> 16 at fixed TP.
    comparisons.push_back(
        {"Pipeline Parallelism", "PP", "TP2-PP4 -> TP2-PP16",
         sweepConfig(h200, gpt,
                     parallel::ParallelConfig::forWorld(32, 2, 4)),
         sweepConfig(h200, gpt,
                     parallel::ParallelConfig::forWorld(32, 2, 16))});

    // Expert parallelism: EP2 -> EP8 on the MoE model (EP1 does not
    // fit: every rank would hold all experts).
    comparisons.push_back(
        {"Expert Parallelism", "EP", "Mixtral EP2 -> EP8 (TP1-PP4)",
         sweepConfig(h200, mix,
                     parallel::ParallelConfig::forWorld(32, 1, 4, 2)),
         sweepConfig(h200, mix,
                     parallel::ParallelConfig::forWorld(32, 1, 4, 8))});

    // Data parallelism: 1 node (DP1) -> 4 nodes (DP4), plain DP so
    // the memory effect is isolated from ZeRO sharding.
    {
        auto base = sweepConfig(
            core::h200Cluster(1), gpt,
            parallel::ParallelConfig::forWorld(8, 2, 4));
        base.train.zero1 = false;
        auto with = sweepConfig(
            h200, gpt, parallel::ParallelConfig::forWorld(32, 2, 4));
        with.train.zero1 = false;
        comparisons.push_back({"Data Parallelism", "DP",
                               "TP2-PP4 on 8 -> 32 GPUs", base,
                               with});
    }

    // FSDP vs. the plain data-parallel layout it shards.
    {
        auto base = sweepConfig(
            h200, gpt, parallel::ParallelConfig::forWorld(32, 8, 1));
        base.train.zero1 = false;
        auto with = sweepConfig(
            h200, gpt,
            parallel::ParallelConfig::forWorld(32, 8, 1, 1, true));
        comparisons.push_back({"Fully-Sharded Data Parallel", "FSDP",
                               "TP8-DP4 -> TP8-FSDP4", base, with});
    }

    // Activation recomputation toggle.
    {
        auto base = sweepConfig(
            h200, gpt, parallel::ParallelConfig::forWorld(32, 2, 16));
        auto with = base;
        with.train.actRecompute = true;
        comparisons.push_back({"Activation Recomputation", "act",
                               "TP2-PP16 +act", base, with});
    }

    // Compute-communication overlap toggle (DP-heavy layout).
    {
        auto base = sweepConfig(
            h200, gpt, parallel::ParallelConfig::forWorld(32, 2, 1));
        auto with = base;
        with.train.ccOverlap = true;
        comparisons.push_back({"Compute-Comm. Overlap", "cc",
                               "TP2-DP16 +cc", base, with});
    }

    // Flatten every (base, with) pair into one batch so the runner
    // can execute all of them concurrently, then fold results back
    // into per-technique impacts in row order.
    std::vector<core::ExperimentConfig> configs;
    configs.reserve(2 * comparisons.size());
    for (const auto& c : comparisons) {
        configs.push_back(c.base);
        configs.push_back(c.with);
    }
    auto rows = benchutil::runSweep(std::move(configs), flags);

    std::vector<Impact> impacts;
    impacts.reserve(comparisons.size());
    for (std::size_t i = 0; i < comparisons.size(); ++i)
        impacts.push_back(toImpact(comparisons[i],
                                   rows[2 * i].result,
                                   rows[2 * i + 1].result));

    TextTable t({"Technique", "Abbr", "Perf", "Memory", "Comm",
                 "measured comparison", "dPerf", "dMem", "dComm"});
    for (const auto& im : impacts) {
        t.addRow({im.technique, im.abbr, arrow(im.perfDelta),
                  arrow(im.memDelta), arrow(im.commDelta),
                  im.comparison,
                  strprintf("%+.0f%%", 100.0 * im.perfDelta),
                  strprintf("%+.0f%%", 100.0 * im.memDelta),
                  strprintf("%+.0f%%", 100.0 * im.commDelta)});
    }
    t.print();
    std::printf("\nArrows: UP/DOWN > 5%% change, doubled > 60%%; "
                "(-) negligible. Perf is throughput (higher = UP).\n");
    return 0;
}
