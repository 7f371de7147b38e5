/**
 * @file
 * Ablation: checkpoint interval x GPU MTBF -> goodput. Checkpointing
 * is insurance: too rare and every fault replays a long tail of lost
 * iterations, too frequent and the write stalls eat the run even when
 * nothing fails. Sweeping the interval against the fleet's MTBF
 * traces the classic non-monotone goodput curve whose peak the
 * Young/Daly rule sqrt(2*C*MTBF) predicts to first order; the last
 * column of each group runs with the rule-selected interval.
 *
 * Every run is byte-deterministic per --seed: the failure schedule is
 * a pure function of (MTBF profile, cluster shape, horizon, seed),
 * and the goodput ledger asserts time/energy conservation, so the CI
 * fault-soak job double-runs this bench and diffs the CSV.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/strings.hh"
#include "common/table.hh"

using namespace charllm;

namespace {

/** Small model so the interval x MTBF grid stays fast. */
model::TransformerConfig
smallModel()
{
    model::TransformerConfig c;
    c.name = "Small-3B";
    c.numLayers = 16;
    c.hiddenSize = 2560;
    c.numHeads = 20;
    c.numQueryGroups = 20;
    c.ffnHiddenSize = 4 * 2560;
    c.vocabSize = 32000;
    c.seqLength = 1024;
    return c;
}

} // namespace

int
main(int argc, char** argv)
{
    std::uint64_t seed = 1;
    std::string csv_path;
    std::vector<benchutil::ExtraFlag> extra;
    extra.push_back(
        {"--seed=", "failure-schedule seed (default 1)",
         [&seed](const std::string& v) {
             char* end = nullptr;
             unsigned long long p = std::strtoull(v.c_str(), &end, 10);
             if (end == v.c_str() || *end != '\0')
                 return false;
             seed = static_cast<std::uint64_t>(p);
             return true;
         }});
    extra.push_back({"--csv=", "write the goodput sweep CSV here",
                     [&csv_path](const std::string& v) {
                         if (v.empty())
                             return false;
                         csv_path = v;
                         return true;
                     }});
    auto flags = benchutil::sweepFlags(argc, argv, extra);

    benchutil::banner("Ablation",
                      "Checkpoint interval x MTBF -> goodput/ETTR "
                      "(Small-3B, H100 x2, TP2-PP2-DP4)");

    auto cluster = core::h100Cluster(2); // 16 GPUs
    auto par = parallel::ParallelConfig::forWorld(16, 2, 2);

    // interval <= 0 selects the Young/Daly optimum inside the run.
    const std::vector<double> intervals = {1.0,  2.0,  4.0,
                                           8.0,  16.0, 0.0};
    const std::vector<double> gpu_mtbfs = {40.0, 120.0, 400.0};

    std::vector<core::ExperimentConfig> configs;
    for (double mtbf : gpu_mtbfs) {
        for (double interval : intervals) {
            auto cfg =
                benchutil::sweepConfig(cluster, smallModel(), par);
            cfg.train.globalBatchSize = 16;
            cfg.warmupIterations = 1;
            cfg.measuredIterations = 60;
            cfg.enableSampler = true;
            cfg.samplePeriodSec = 0.02;
            cfg.resilience.enabled = true;
            cfg.resilience.seed = seed;
            // Hot-MTBF cells can stretch past the default 1 h
            // failure horizon (finalize() now hard-checks coverage).
            cfg.resilience.horizonSec = 40000.0;
            cfg.resilience.mtbf.gpuMtbfSec = mtbf;
            cfg.resilience.mtbf.linkMtbfSec = 2.0 * mtbf;
            cfg.resilience.mtbf.nodeMtbfSec = 0.0;
            cfg.resilience.checkpoint.intervalSec = interval;
            // Warm spares were unconditional before the finite pool
            // existed; this sweep keeps the legacy always-a-spare
            // economics (pool depth is bench_ablation_elastic's job).
            cfg.resilience.recovery.spares.capacity = 1 << 20;
            configs.push_back(std::move(cfg));
        }
    }

    auto rows = benchutil::runSweep(configs, flags);

    CsvWriter csv;
    csv.header({"seed", "gpu_mtbf_s", "interval_req_s", "interval_s",
                "ettr", "energy_ettr", "useful_s", "checkpoint_s",
                "detection_s", "retry_s", "rollback_replay_s",
                "idle_s", "wall_s", "rollbacks", "replayed",
                "transient_recovered", "ckpts_committed",
                "ckpts_discarded"});
    TextTable t({"mtbf(s)", "interval", "ETTR", "E-ETTR", "wall(s)",
                 "ckpt(s)", "replay(s)", "rollbacks", "retry-ok"});
    std::string last_group;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& cfg = configs[i];
        const auto& r = rows[i].result;
        if (!r.feasible || !r.goodputValid)
            continue;
        const auto& g = r.goodput;
        csv.beginRow();
        csv.cell(static_cast<double>(seed));
        csv.cell(cfg.resilience.mtbf.gpuMtbfSec);
        csv.cell(cfg.resilience.checkpoint.intervalSec);
        csv.cell(r.checkpointIntervalSec);
        csv.cell(g.ettr());
        csv.cell(g.energyEttr());
        csv.cell(g.slice(resil::Bucket::Useful).seconds);
        csv.cell(g.slice(resil::Bucket::Checkpoint).seconds);
        csv.cell(g.slice(resil::Bucket::Detection).seconds);
        csv.cell(g.slice(resil::Bucket::Retry).seconds);
        csv.cell(g.slice(resil::Bucket::RollbackReplay).seconds);
        csv.cell(g.slice(resil::Bucket::Idle).seconds);
        csv.cell(g.wallSec);
        csv.cell(g.stats.rollbacks);
        csv.cell(g.stats.iterationsReplayed);
        csv.cell(g.stats.transientRecovered);
        csv.cell(g.stats.checkpointsCommitted);
        csv.cell(g.stats.checkpointsDiscarded);
        csv.endRow();

        std::string group =
            strprintf("%.0f", cfg.resilience.mtbf.gpuMtbfSec);
        if (!last_group.empty() && group != last_group)
            t.addSeparator();
        last_group = group;
        std::string label =
            cfg.resilience.checkpoint.intervalSec > 0.0
                ? strprintf("%.0fs",
                            cfg.resilience.checkpoint.intervalSec)
                : strprintf("Y-D %.1fs", r.checkpointIntervalSec);
        t.addRow({group, label, strprintf("%.3f", g.ettr()),
                  strprintf("%.3f", g.energyEttr()),
                  benchutil::fmtSec(g.wallSec),
                  benchutil::fmtSec(
                      g.slice(resil::Bucket::Checkpoint).seconds),
                  benchutil::fmtSec(
                      g.slice(resil::Bucket::RollbackReplay).seconds),
                  strprintf("%d", g.stats.rollbacks),
                  strprintf("%d", g.stats.transientRecovered)});
    }
    t.print();

    if (!csv_path.empty()) {
        if (csv.writeTo(csv_path))
            std::printf("\nwrote goodput sweep: %s\n",
                        csv_path.c_str());
        else {
            std::fprintf(stderr, "failed to write %s\n",
                         csv_path.c_str());
            return 1;
        }
    }

    std::printf(
        "\nExpected: within each MTBF group goodput is non-monotone\n"
        "in the checkpoint interval — short intervals pay write\n"
        "stalls every few steps, long intervals pay long replay\n"
        "tails after each fault — and the Young/Daly row lands near\n"
        "the peak. Transient link faults recovered by retry never\n"
        "roll back; only fatal faults (and escalated retries) do.\n");
    return 0;
}
