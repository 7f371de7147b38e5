/**
 * @file
 * Shared helpers for the figure/table reproduction benches: standard
 * experiment row printing, per-model efficiency normalization (the
 * paper normalizes efficiency to each model's best configuration),
 * and sweep drivers.
 */

#ifndef CHARLLM_BENCH_BENCH_UTIL_HH
#define CHARLLM_BENCH_BENCH_UTIL_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/table.hh"
#include "core/catalog.hh"
#include "core/cluster.hh"
#include "core/experiment.hh"
#include "sim/backend_kind.hh"

namespace charllm {
namespace benchutil {

/** Print the bench banner: which figure/table this regenerates. */
void banner(const std::string& exp_id, const std::string& what);

/** Default measurement settings for sweeps (1 warmup, 1 measured). */
core::ExperimentConfig sweepConfig(const core::ClusterSpec& cluster,
                                   const model::TransformerConfig& m,
                                   const parallel::ParallelConfig& par);

/** One row of a (possibly infeasible) experiment outcome. */
struct SweepRow
{
    std::string model;
    std::string variant; //!< e.g. "TP2-PP16+act"
    core::ExperimentResult result;
};

/** Standard bench command-line knobs (see sweepFlags). */
struct SweepFlags
{
    int threads = 0;         //!< --threads=N / -jN (0 = auto)
    std::string tracePath;   //!< --trace=FILE: unified Perfetto JSON
    std::string metricsPath; //!< --metrics=FILE: self-profiling dump
    /** --critical-path=FILE: causal critical-path report JSON of the
     *  first config (DES backend only; refused with a message on the
     *  analytical backend, which has no event timeline to trace). */
    std::string critPathPath;
    /** --backend=des|analytical: fidelity backend for every config. */
    sim::BackendKind backend = sim::BackendKind::Des;
};

/**
 * The one bench driver: run every config on flags.backend on a
 * core::SweepRunner pool of flags.threads workers and return one
 * labelled row per config, in order (infeasible configs come back
 * with feasible == false, the paper's config screening). Output is
 * byte-identical at any thread count. Also:
 *  - a config core::validate rejects prints `label: problem` lines
 *    to stderr and exits 2 before anything runs; under
 *    --backend=analytical that covers a fault scenario, resilience
 *    and the telemetry sampler;
 *  - with flags.tracePath set, the first configuration runs with the
 *    kernel trace and telemetry sampler enabled and its merged
 *    Perfetto timeline (kernel spans + counter tracks + fault
 *    overlays + iteration markers) is written there;
 *  - with flags.critPathPath set, the first configuration runs with
 *    causal critical-path tracing and its report (writeCriticalPath)
 *    is written there;
 *  - with flags.metricsPath set, the sweep self-profiles (event-queue
 *    / flow-solver counters, per-task wall times) and the metrics
 *    registry dump is written there.
 */
std::vector<SweepRow>
runSweep(std::vector<core::ExperimentConfig> configs,
         const SweepFlags& flags);

/** Write @p r's critical-path report to @p path as
 *  {"label":...,"critical_path":{...}}, the tools/rundiff.py input. */
void writeCriticalPath(const std::string& path,
                       const core::ExperimentResult& r);

/** A bench-specific flag handled alongside the shared knobs. */
struct ExtraFlag
{
    std::string prefix; //!< e.g. "--seed="
    std::string help;   //!< one-line description for --help
    /** Receives the text after the prefix; return false when the
     *  value is malformed (the bench exits nonzero with a message). */
    std::function<bool(const std::string& value)> handler;
};

/**
 * Parse the standard bench knobs: `--threads=N` (or `-jN`),
 * `--trace=FILE`, `--metrics=FILE`, `--critical-path=FILE`,
 * `--backend=KIND`, plus any bench-specific @p extra flags. Strict:
 * an unknown flag, a positional argument, or a malformed value
 * prints a message and exits 2; `--help` lists every flag and exits
 * 0.
 */
SweepFlags sweepFlags(int argc, char** argv,
                      const std::vector<ExtraFlag>& extra = {});

/**
 * Normalize tokens-per-joule per model, best configuration == 1.0
 * (paper Figs. 4/9/10/13/14 convention).
 */
std::map<std::string, double>
bestEfficiencyPerModel(const std::vector<SweepRow>& rows);

/**
 * Render the standard system-metrics table the paper's power/thermal
 * figures report: efficiency (normalized), avg/peak power, avg/peak
 * temperature, avg clock, throttle ratio.
 */
void printSystemMetrics(const std::vector<SweepRow>& rows);

/** Render a per-kernel-class breakdown table (seconds and shares). */
void printBreakdown(const std::string& title,
                    const std::vector<SweepRow>& rows);

/** Format seconds with 3 significant digits. */
std::string fmtSec(double s);

/**
 * Peak resident set size of this process so far, in KiB
 * (getrusage ru_maxrss). Monotone over the process lifetime; used by
 * the scale benches to report collapsed-run memory footprints.
 */
long peakRssKb();

} // namespace benchutil
} // namespace charllm

#endif // CHARLLM_BENCH_BENCH_UTIL_HH
