/**
 * @file
 * Regenerates paper Figure 22: projected per-kernel latency, strong
 * scaling, and per-GPU throughput for GPT3-175B training scaled to
 * thousands of GPUs, following the paper's methodology: measure the
 * DP=1 kernel times on the real (here: simulated) clusters, divide
 * compute/communication by the DP degree, and add the modelled DP
 * AllReduce — at 100 Gbps and 800 Gbps interconnects.
 *
 * Expected shape: sublinear scaling from AllReduce overhead at 100G
 * (strong-scaling collapse approaching an order of magnitude at 8K
 * GPUs), substantially recovered at 800G; H100 reaches higher
 * absolute throughput, H200 higher per-GPU throughput.
 *
 * `--backend=des --symmetry=on` switches from the analytic projector
 * to MECHANISTIC event-driven runs: rank-symmetry collapse folds the
 * DP replicas onto tp*pp physical devices (DESIGN.md §12), so worlds
 * of 16K-64K GPUs execute for real at the cost of a 32-GPU run. Each
 * row is run twice (every output must match) and cross-checked
 * against scale::Projector and the analytical backend. The exit
 * status also gates the collapse contracts: peak RSS stays under
 * kRssCapKb and the aggregate event rate at the largest world clears
 * kAggregateRateFloor. `--out=FILE` writes the rows as a JSON artifact
 * (events/sec, peak RSS); the file is opened before the first run, so
 * an unwritable path exits 2 at once.
 */

#include <chrono>
#include <cstdio>
#include <fstream>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/strings.hh"
#include "core/compare.hh"
#include "scale/projector.hh"

using namespace charllm;

namespace {

constexpr int kTp = 8;
constexpr int kPp = 4;

/** Collapse contracts. Memory is O(distinct ranks): collapsed runs
 *  peak near 20 MB, while instantiating 65536 ranks would exceed the
 *  cap by orders of magnitude. The aggregate rate counts physical
 *  pops times the DP multiplicity. */
constexpr long kRssCapKb = 2'000'000;
constexpr double kAggregateRateFloor = 1e7;

void
project(const core::ClusterSpec& cluster,
        const parallel::ParallelConfig& par, double bw_mult,
        const core::ExperimentResult& r)
{
    if (!r.feasible) {
        std::printf("%s %s: baseline OOM\n\n",
                    cluster.name.c_str(), par.label().c_str());
        return;
    }

    scale::ProjectionInput in;
    in.computeSeconds = Seconds(r.meanBreakdown.computeTotal());
    // TP collectives stay on the scale-up fabric; pipeline SendRecv
    // is the inter-node component at DP=1.
    in.intraCommSeconds =
        Seconds(r.meanBreakdown[hw::KernelClass::AllReduce] +
                r.meanBreakdown[hw::KernelClass::AllToAll]);
    in.interCommSeconds =
        Seconds(r.meanBreakdown[hw::KernelClass::SendRecv]);
    parallel::MemoryPlanner planner(model::gpt3_175b(), par);
    in.gradBytesPerGpu = Bytes(planner.paramsPerGpu(1) * 2.0);
    in.baseGpus = par.worldSize();
    in.gpusPerNode = cluster.network.gpusPerNode;
    in.tokensPerIteration = r.tokensPerIteration;
    in.nodeBandwidth = cluster.network.nicBw;
    in.messageLatency = cluster.network.interLatency;

    scale::Projector proj(in);
    std::printf("=== %s, %s, %.0fG inter-node ===\n",
                cluster.name.c_str(), par.label().c_str(),
                100.0 * bw_mult);
    TextTable t({"GPUs", "DP", "compute(s)", "comm(s)",
                 "allreduce(s)", "iter(s)", "strong-scaling",
                 "tok/s/GPU"});
    for (int dp : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
        if (par.worldSize() * dp > 8192)
            break;
        auto p = proj.project(dp, bw_mult);
        t.addRow({std::to_string(p.totalGpus), std::to_string(dp),
                  formatFixed(p.computeSeconds.value(), 2),
                  formatFixed(p.commSeconds.value(), 2),
                  formatFixed(p.allReduceSeconds.value(), 2),
                  formatFixed(p.iterationSeconds.value(), 2),
                  formatFixed(p.strongScalingEfficiency, 3),
                  formatFixed(p.perGpuTokensPerSecond, 0)});
    }
    t.print();
    auto worst = proj.project(8192 / par.worldSize(), bw_mult);
    std::printf("collapse vs ideal at %d GPUs: %.1fx\n\n", 8192,
                1.0 / worst.strongScalingEfficiency);
}

// ---- mechanistic collapsed-DES path ------------------------------------------

/** GPT3-175B at tp=8/pp=4 on H200 nodes, logical world 32*dp. */
core::ExperimentConfig
mechConfig(int dp, int microbatches_per_replica)
{
    int world = kTp * kPp * dp;
    auto cfg = benchutil::sweepConfig(
        core::h200Cluster(world / 8), model::gpt3_175b(),
        parallel::ParallelConfig::forWorld(world, kTp, kPp));
    cfg.train.actRecompute = true;
    cfg.train.globalBatchSize = microbatches_per_replica * dp;
    return cfg;
}

struct MechRow
{
    int world = 0;
    int dp = 0;
    core::ExperimentResult des;
    double projIterSec = 0.0;
    double anaIterSec = 0.0;
    core::Comparison projCheck; //!< projector vs des (if projected)
    core::Comparison anaCheck;  //!< analytical vs des
    double wallSec = 0.0;
    double aggEventsPerSec = 0.0;
    long peakRssKb = 0;
    bool deterministic = false;
};

/** Run one collapsed world twice (determinism: every output equal)
 *  plus the analytical cross-check; dies loudly if collapse was
 *  refused. */
MechRow
runMechanistic(int dp, int microbatches, const scale::Projector* proj)
{
    MechRow row;
    row.dp = dp;
    row.world = kTp * kPp * dp;
    auto cfg = mechConfig(dp, microbatches);
    cfg.symmetryCollapse = true;

    auto t0 = std::chrono::steady_clock::now();
    row.des = core::Experiment::run(cfg);
    row.wallSec = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    CHARLLM_CHECK(row.des.feasible, "mechanistic run infeasible");
    CHARLLM_CHECK(row.des.symmetry.collapsed,
                  "collapse refused: ", row.des.symmetry.reason);
    row.aggEventsPerSec =
        static_cast<double>(row.des.counters.eventsPopped) *
        static_cast<double>(dp) / row.wallSec;
    row.peakRssKb = benchutil::peakRssKb();

    // Byte-determinism: the collapsed partitioned schedule must
    // reproduce every output exactly.
    auto repeat = core::compareResults(core::Experiment::run(cfg), row.des,
                                       core::tolerance("bitwise"));
    row.deterministic = repeat.ok();
    CHARLLM_CHECK(row.deterministic,
                  "collapsed run is not byte-deterministic at world ",
                  row.world, ": ", repeat.breaches.front());

    // Cross-check 1: the analytical backend on the same config (it
    // folds the DP replicas by the same proof, so every world is cheap).
    auto ana_cfg = cfg;
    ana_cfg.backend = sim::BackendKind::Analytical;
    auto ana = core::Experiment::run(ana_cfg);
    row.anaIterSec = ana.avgIterationSeconds;
    row.anaCheck = core::compareResults(ana, row.des,
                                        core::tolerance("fig22/analytical"));

    // Cross-check 2: the strong-scaling projector (when the DP point
    // shares the projector's fixed global batch), which predicts the
    // iteration time only.
    if (proj != nullptr) {
        core::ExperimentResult projected;
        projected.label = row.des.label;
        projected.avgIterationSeconds =
            proj->project(dp, 1.0).iterationSeconds.value();
        row.projIterSec = projected.avgIterationSeconds;
        row.projCheck = core::compareResults(
            projected, row.des,
            core::tolerance(dp <= 4 ? "fig22/projector-dp<=4"
                                    : "fig22/projector"));
    }
    return row;
}

int
mechanistic(const std::string& out_path)
{
    std::ofstream os;
    if (!out_path.empty()) {
        os.open(out_path, std::ios::binary);
        if (!os) {
            std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
            return 2;
        }
    }

    std::printf("--- mechanistic collapsed-DES runs "
                "(tp=%d, pp=%d: %d physical GPUs) ---\n\n",
                kTp, kPp, kTp * kPp);

    // Projector baseline at DP=1 with the fixed strong-scaling batch.
    const int kStrongBatch = 128;
    auto base_cfg = mechConfig(1, kStrongBatch);
    auto base = core::Experiment::run(base_cfg);
    CHARLLM_CHECK(base.feasible, "projector baseline OOM");
    scale::ProjectionInput in;
    in.computeSeconds = Seconds(base.meanBreakdown.computeTotal());
    in.intraCommSeconds =
        Seconds(base.meanBreakdown[hw::KernelClass::AllReduce] +
                base.meanBreakdown[hw::KernelClass::AllToAll]);
    in.interCommSeconds =
        Seconds(base.meanBreakdown[hw::KernelClass::SendRecv]);
    parallel::MemoryPlanner planner(
        model::gpt3_175b(),
        parallel::ParallelConfig::forWorld(kTp * kPp, kTp, kPp));
    in.gradBytesPerGpu = Bytes(planner.paramsPerGpu(1) * 2.0);
    in.baseGpus = kTp * kPp;
    in.gpusPerNode = 8;
    in.tokensPerIteration = base.tokensPerIteration;
    in.nodeBandwidth = core::h200Cluster(1).network.nicBw;
    in.messageLatency = core::h200Cluster(1).network.interLatency;
    scale::Projector proj(in);

    // Strong-scaling rows (fixed global batch = projector's model):
    // mechanistic DES vs projector, apples to apples.
    std::vector<MechRow> rows;
    for (int dp : {4, 16})
        rows.push_back(
            runMechanistic(dp, kStrongBatch / dp, &proj));
    // Weak-scaling rows to datacenter worlds (4 microbatches per
    // replica): 16K and 64K logical GPUs, executed mechanistically.
    for (int dp : {64, 512, 2048})
        rows.push_back(runMechanistic(dp, 4, nullptr));

    TextTable t({"world", "DP", "domains", "iter(s)", "proj(s)",
                 "ana(s)", "wall(s)", "Mevents/s", "rss(MB)",
                 "bit-det"});
    for (const auto& r : rows)
        t.addRow({std::to_string(r.world), std::to_string(r.dp),
                  std::to_string(r.des.symmetry.domains),
                  formatFixed(r.des.avgIterationSeconds, 3),
                  r.projIterSec > 0.0 ? formatFixed(r.projIterSec, 3)
                                      : std::string("-"),
                  r.anaIterSec > 0.0 ? formatFixed(r.anaIterSec, 3)
                                     : std::string("-"),
                  formatFixed(r.wallSec, 2),
                  formatFixed(r.aggEventsPerSec / 1e6, 1),
                  formatFixed(r.peakRssKb / 1024.0, 0),
                  r.deterministic ? "yes" : "NO"});
    t.print();

    // Cross-validation gates (core::toleranceTable() rows fig22/*).
    // The analytical backend models the full config (observed
    // agreement <1%; gate at 5%). The projector is a first-order model
    // that misses NIC sharing across the node's TP ranks and the
    // bubble-fraction growth as strong scaling shrinks the microbatch
    // count (observed 41%/73% at dp=4/16), so it is gated at
    // factor-of-two level: it catches gross regressions in the
    // mechanistic path, not fine disagreement.
    bool ok = true;
    for (const auto& r : rows) {
        for (auto [what, check] : {std::pair{"analytical", &r.anaCheck},
                                   {"projector", &r.projCheck}}) {
            if (check->ok())
                continue;
            std::printf("FAIL: %s mismatch at world %d: %.1f%%\n", what,
                        r.world,
                        100.0 * (*check)[core::Metric::IterationTime]);
            ok = false;
        }
        if (r.peakRssKb > kRssCapKb) {
            std::printf("FAIL: peak RSS %ld KiB at world %d exceeds the "
                        "%ld KiB collapse cap\n",
                        r.peakRssKb, r.world, kRssCapKb);
            ok = false;
        }
    }
    // The aggregate rate grows with DP, so its floor applies at the
    // largest world (65536).
    const MechRow& largest = rows.back();
    if (largest.aggEventsPerSec < kAggregateRateFloor) {
        std::printf("FAIL: aggregate rate %.3g ev/s at world %d is below "
                    "the %.0e floor\n",
                    largest.aggEventsPerSec, largest.world,
                    kAggregateRateFloor);
        ok = false;
    }

    if (!out_path.empty()) {
        os << "{\"tp\":" << kTp << ",\"pp\":" << kPp << ",\"runs\":[";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const auto& r = rows[i];
            if (i > 0)
                os << ',';
            os << "{\"world\":" << r.world << ",\"dp\":" << r.dp
               << ",\"physical_world\":"
               << r.des.symmetry.physicalWorld
               << ",\"multiplicity\":" << r.des.symmetry.multiplicity
               << ",\"domains\":" << r.des.symmetry.domains
               << ",\"iteration_s\":"
               << formatDouble(r.des.avgIterationSeconds)
               << ",\"projector_iteration_s\":"
               << formatDouble(r.projIterSec)
               << ",\"analytical_iteration_s\":"
               << formatDouble(r.anaIterSec)
               << ",\"wall_s\":" << formatDouble(r.wallSec)
               << ",\"events_popped_physical\":"
               << r.des.counters.eventsPopped
               << ",\"aggregate_events_per_sec\":"
               << formatDouble(r.aggEventsPerSec)
               << ",\"peak_rss_kb\":" << r.peakRssKb
               << ",\"deterministic\":"
               << (r.deterministic ? "true" : "false") << '}';
        }
        os << "]}\n";
        if (!os.flush()) {
            std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
            return 2;
        }
        std::printf("wrote %s\n", out_path.c_str());
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string symmetry = "off";
    std::string out_path;
    auto flags = benchutil::sweepFlags(
        argc, argv,
        {{"--symmetry=",
          "on|off: mechanistic collapsed-DES scaling runs instead of "
          "the analytic projector (default off)",
          [&symmetry](const std::string& v) {
              if (v != "on" && v != "off")
                  return false;
              symmetry = v;
              return true;
          }},
         {"--out=",
          "FILE: write the mechanistic-run JSON artifact "
          "(events/sec, peak RSS; with --symmetry=on)",
          [&out_path](const std::string& v) {
              out_path = v;
              return !v.empty();
          }}});

    benchutil::banner("Figure 22",
                      "Datacenter-scale projection (up to 8K GPUs)");
    // Not runSweep: each mechanistic run is timed and RSS-read alone.
    if (symmetry == "on")
        return mechanistic(out_path);

    // Measure the DP=1 baselines on the simulated clusters; DP=1
    // requires tp*pp to cover the cluster.
    auto baseline = [](const core::ClusterSpec& cluster, int pp) {
        auto cfg = benchutil::sweepConfig(
            cluster, model::gpt3_175b(),
            parallel::ParallelConfig::forWorld(cluster.numGpus(), 2, pp));
        cfg.train.actRecompute = true;
        return cfg;
    };
    std::vector<core::ExperimentConfig> configs = {
        baseline(core::h200Cluster(), 16), baseline(core::h100Cluster(), 32),
        baseline(core::h200Cluster(), 16)};
    const double bw_mults[] = {1.0, 1.0, 8.0};
    auto rows = benchutil::runSweep(configs, flags);
    for (std::size_t i = 0; i < rows.size(); ++i)
        project(configs[i].cluster, configs[i].par, bw_mults[i],
                rows[i].result);
    return 0;
}
