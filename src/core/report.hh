/**
 * @file
 * Result exporters. The paper's artifact emits per-GPU telemetry CSVs
 * and summary tables that its visualization scripts consume; these
 * helpers produce the equivalent machine-readable outputs from
 * ExperimentResult so downstream tooling (plotting, regression
 * tracking) can be pointed at the simulator.
 */

#ifndef CHARLLM_CORE_REPORT_HH
#define CHARLLM_CORE_REPORT_HH

#include <span>
#include <string>
#include <vector>

#include "common/csv.hh"
#include "core/experiment.hh"
#include "obs/phase.hh"
#include "obs/trace_builder.hh"

namespace charllm {
namespace core {

/**
 * One row per experiment: label, feasibility, timing, throughput,
 * energy, and cluster-level power/thermal aggregates.
 */
CsvWriter summaryCsv(std::span<const ExperimentResult> results);

/** Per-GPU metrics of one experiment (one row per device). */
CsvWriter gpuMetricsCsv(const ExperimentResult& result);

/** Per-kernel-class breakdown of one experiment (one row per class). */
CsvWriter breakdownCsv(const ExperimentResult& result);

/** Telemetry time series (only when the sampler was enabled). */
CsvWriter seriesCsv(const ExperimentResult& result);

/** Compact single-experiment JSON summary (flat object). */
std::string toJson(const ExperimentResult& result);

/**
 * Unified Perfetto timeline of one experiment: kernel spans, fault
 * overlays, per-GPU power/temp/clock/link-util counter tracks, and
 * iteration markers, merged on the shared simulated clock. Needs
 * enableTrace; counter tracks appear when the sampler ran too.
 */
std::string unifiedTraceJson(const ExperimentResult& result);

/**
 * Write unifiedTraceJson(@p result)'s text to @p path, streamed in
 * 1 MiB pieces so the trace is never held whole. False on I/O failure.
 */
bool writeUnifiedTrace(const ExperimentResult& result,
                       const std::string& path);

/**
 * Phase attribution (compute / exposed-comm / bubble / idle) with
 * per-phase energy, over the whole run. Needs enableTrace; energies
 * are zero unless the sampler ran.
 */
obs::PhaseReport phaseReport(const ExperimentResult& result);

/**
 * Structured run report: summary metrics, phase breakdown (when
 * traced), and the simulator self-profiling counters, as one JSON
 * object.
 */
std::string runReportJson(const ExperimentResult& result);

/**
 * Write every applicable report of @p result into @p directory
 * (created if needed), with file names derived from @p stem. The
 * phase report is computed once, for both its CSV and the run
 * report. Returns the paths written; empty on I/O failure.
 */
std::vector<std::string> writeReports(const ExperimentResult& result,
                                      const std::string& directory,
                                      const std::string& stem);

} // namespace core
} // namespace charllm

#endif // CHARLLM_CORE_REPORT_HH
