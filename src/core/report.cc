#include "core/report.hh"

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/strings.hh"

namespace charllm {
namespace core {

CsvWriter
summaryCsv(std::span<const ExperimentResult> results)
{
    CsvWriter csv;
    csv.header({"label", "feasible", "iteration_s", "tokens_per_s",
                "tokens_per_j", "energy_per_token_j", "avg_power_w",
                "peak_power_w", "avg_temp_c", "peak_temp_c",
                "avg_clock_ghz", "throttle_ratio",
                "memory_per_gpu_gb"});
    for (const auto& r : results) {
        csv.beginRow();
        csv.cell(r.label);
        csv.cell(r.feasible ? 1 : 0);
        csv.cell(r.avgIterationSeconds);
        csv.cell(r.tokensPerSecond);
        csv.cell(r.tokensPerJoule);
        csv.cell(r.energyPerTokenJ);
        csv.cell(r.avgPowerW);
        csv.cell(r.peakPowerW);
        csv.cell(r.avgTempC);
        csv.cell(r.peakTempC);
        csv.cell(r.avgClockGhz);
        csv.cell(r.throttleRatio);
        csv.cell(r.memory.total() / 1e9);
        csv.endRow();
    }
    return csv;
}

CsvWriter
gpuMetricsCsv(const ExperimentResult& result)
{
    CsvWriter csv;
    csv.header({"gpu", "avg_power_w", "peak_power_w", "avg_temp_c",
                "peak_temp_c", "avg_clock_ghz", "throttle_ratio",
                "avg_occupancy", "avg_warps", "avg_threadblocks",
                "energy_j", "pcie_bytes", "scaleup_bytes",
                "compute_s", "comm_s"});
    for (std::size_t i = 0; i < result.gpus.size(); ++i) {
        const auto& g = result.gpus[i];
        csv.beginRow();
        csv.cell(static_cast<int>(i));
        csv.cell(g.avgPowerW);
        csv.cell(g.peakPowerW);
        csv.cell(g.avgTempC);
        csv.cell(g.peakTempC);
        csv.cell(g.avgClockGhz);
        csv.cell(g.throttleRatio);
        csv.cell(g.avgOccupancy);
        csv.cell(g.avgWarps);
        csv.cell(g.avgThreadblocks);
        csv.cell(g.energyJ);
        csv.cell(g.pcieBytes);
        csv.cell(g.scaleUpBytes);
        csv.cell(g.breakdown.computeTotal());
        csv.cell(g.breakdown.commTotal());
        csv.endRow();
    }
    return csv;
}

CsvWriter
breakdownCsv(const ExperimentResult& result)
{
    CsvWriter csv;
    csv.header({"kernel_class", "rank_mean_seconds", "share"});
    double total = result.meanBreakdown.total();
    for (std::size_t i = 0; i < hw::kNumKernelClasses; ++i) {
        auto cls = static_cast<hw::KernelClass>(i);
        double s = result.meanBreakdown[cls];
        if (s <= 0.0)
            continue;
        csv.beginRow();
        csv.cell(std::string(hw::kernelClassName(cls)));
        csv.cell(s);
        csv.cell(total > 0.0 ? s / total : 0.0);
        csv.endRow();
    }
    return csv;
}

CsvWriter
seriesCsv(const ExperimentResult& result)
{
    CsvWriter csv;
    csv.header({"time_s", "gpu", "power_w", "temp_c", "clock_ghz",
                "occupancy", "pcie_bps", "scaleup_bps"});
    for (std::size_t g = 0; g < result.series.size(); ++g) {
        for (const auto& s : result.series[g]) {
            csv.beginRow();
            csv.cell(s.time.value());
            csv.cell(static_cast<int>(g));
            csv.cell(s.powerWatts.value());
            csv.cell(s.tempC.value());
            csv.cell(s.clockGhz);
            csv.cell(s.occupancy);
            csv.cell(s.pcieRate.value());
            csv.cell(s.scaleUpRate.value());
            csv.endRow();
        }
    }
    return csv;
}

namespace {

std::string
symmetryJson(const scale::SymmetryDecision& s)
{
    std::ostringstream os;
    os << "{\"requested\":" << (s.requested ? "true" : "false")
       << ",\"collapsed\":" << (s.collapsed ? "true" : "false")
       << ",\"reason\":\"" << jsonEscape(s.reason) << "\""
       << ",\"logical_world\":" << s.logicalWorld
       << ",\"physical_world\":" << s.physicalWorld
       << ",\"multiplicity\":" << s.multiplicity
       << ",\"domains\":" << s.domains << "}";
    return os.str();
}

} // namespace

std::string
toJson(const ExperimentResult& result)
{
    std::ostringstream os;
    os << "{\"label\":\"" << jsonEscape(result.label) << "\""
       << ",\"feasible\":" << (result.feasible ? "true" : "false")
       << ",\"iteration_s\":" << formatDouble(result.avgIterationSeconds)
       << ",\"tokens_per_s\":" << formatDouble(result.tokensPerSecond)
       << ",\"tokens_per_j\":" << formatDouble(result.tokensPerJoule)
       << ",\"avg_power_w\":" << formatDouble(result.avgPowerW)
       << ",\"peak_power_w\":" << formatDouble(result.peakPowerW)
       << ",\"avg_temp_c\":" << formatDouble(result.avgTempC)
       << ",\"peak_temp_c\":" << formatDouble(result.peakTempC)
       << ",\"throttle_ratio\":" << formatDouble(result.throttleRatio)
       << ",\"gpus\":" << result.gpus.size()
       << ",\"symmetry\":" << symmetryJson(result.symmetry) << "}";
    return os.str();
}

namespace {

/** The unified timeline's builder; it points into @p result. */
obs::TraceBuilder
unifiedTraceBuilder(const ExperimentResult& result)
{
    obs::TraceBuilder builder;
    if (result.trace)
        builder.addKernels(*result.trace);
    for (std::size_t g = 0; g < result.series.size(); ++g)
        builder.addCounters(static_cast<int>(g), result.series[g]);
    for (const auto& span : result.iterationSpans) {
        std::string name =
            (span.warmup ? "warmup " : "iteration ") +
            std::to_string(span.index);
        if (span.aborted)
            name += " (aborted)";
        else if (span.replay)
            name += " (replay)";
        builder.addRunSpan("iteration", name, span.startSec,
                           span.endSec - span.startSec);
    }
    if (result.goodputValid) {
        for (const auto& seg : result.goodput.timeline) {
            if (seg.bucket == resil::Bucket::Useful)
                continue;
            builder.addRunSpan("resilience",
                               resil::bucketName(seg.bucket),
                               seg.startSec, seg.endSec - seg.startSec);
        }
        // World-size track: one span per capacity epoch, so elastic
        // shrink/grow shows up next to the resilience buckets. A
        // single epoch means the world never changed — skip the track.
        const auto& caps = result.goodput.capacity;
        if (caps.size() > 1) {
            for (std::size_t i = 0; i < caps.size(); ++i) {
                double end = i + 1 < caps.size()
                                 ? caps[i + 1].startSec
                                 : result.goodput.wallSec;
                if (end <= caps[i].startSec)
                    continue;
                builder.addRunSpan(
                    "world_size",
                    "world " + std::to_string(caps[i].activeGpus) +
                        " gpus",
                    caps[i].startSec, end - caps[i].startSec);
            }
        }
    }
    if (result.critPath) {
        // One span per critical-path segment, named by cause class
        // (plus the attributed GPU when one exists). Segments are
        // emitted in iteration order and are intra-iteration sorted,
        // so the track satisfies the per-track time-sort contract.
        for (const auto& iter : result.critPath->iterations) {
            for (const auto& seg : iter.segments) {
                std::string name = obs::causeClassName(seg.cause);
                if (seg.dev >= 0)
                    name += " gpu" + std::to_string(seg.dev);
                builder.addRunSpan("critical_path", name, seg.startSec,
                                   seg.endSec - seg.startSec);
            }
        }
    }
    return builder;
}

/** runReportJson() with the phase report (when traced) supplied. */
std::string
runReportJson(const ExperimentResult& result,
              const obs::PhaseReport* phases)
{
    obs::MetricsRegistry registry;
    result.counters.addTo(registry);
    if (result.goodputValid) {
        const auto& s = result.goodput.stats;
        registry.counter("resil.failures_injected")
            .inc(s.failuresInjected);
        registry.counter("resil.failures_absorbed")
            .inc(s.failuresAbsorbed);
        registry.counter("resil.transient_recovered")
            .inc(s.transientRecovered);
        registry.counter("resil.retries_attempted")
            .inc(s.retriesAttempted);
        registry.counter("resil.retries_escalated")
            .inc(s.retriesEscalated);
        registry.counter("resil.rollbacks").inc(s.rollbacks);
        registry.counter("resil.iterations_replayed")
            .inc(s.iterationsReplayed);
        registry.counter("resil.checkpoints_committed")
            .inc(s.checkpointsCommitted);
        registry.counter("resil.checkpoints_discarded")
            .inc(s.checkpointsDiscarded);
        registry.counter("resil.elastic.domain_faults")
            .inc(s.domainFaults);
        registry.counter("resil.elastic.shrinks").inc(s.elasticShrinks);
        registry.counter("resil.elastic.grows").inc(s.elasticGrows);
        registry.counter("resil.elastic.spares_consumed")
            .inc(s.sparesConsumed);
        registry.counter("resil.elastic.spares_replenished")
            .inc(s.sparesReplenished);
        registry.counter("resil.elastic.pool_dry_events")
            .inc(s.poolDryEvents);
        registry.gauge("resil.ettr").set(result.goodput.ettr());
        registry.gauge("resil.effective_ettr")
            .set(result.goodput.effectiveEttr());
        registry.gauge("resil.elastic.min_active_gpus")
            .set(static_cast<double>(result.goodput.minActiveGpus()));
    }
    std::ostringstream os;
    os << "{\"summary\":" << toJson(result);
    if (phases != nullptr)
        os << ",\"phases\":" << phases->toJson();
    if (result.goodputValid)
        os << ",\"goodput\":" << result.goodput.toJson();
    if (result.critPath)
        os << ",\"critical_path\":" << result.critPath->toJson();
    os << ",\"metrics\":" << registry.toJson() << '}';
    return os.str();
}

} // namespace

std::string
unifiedTraceJson(const ExperimentResult& result)
{
    return unifiedTraceBuilder(result).toJson();
}

bool
writeUnifiedTrace(const ExperimentResult& result, const std::string& path)
{
    return unifiedTraceBuilder(result).writeTo(path);
}

obs::PhaseReport
phaseReport(const ExperimentResult& result)
{
    static const telemetry::KernelTrace kEmpty;
    return obs::attributePhases(
        result.trace ? *result.trace : kEmpty, result.series);
}

std::string
runReportJson(const ExperimentResult& result)
{
    if (!result.trace)
        return runReportJson(result, nullptr);
    obs::PhaseReport phases = phaseReport(result);
    return runReportJson(result, &phases);
}

std::vector<std::string>
writeReports(const ExperimentResult& result,
             const std::string& directory, const std::string& stem)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(directory, ec);
    if (ec)
        return {};
    std::vector<std::string> written;
    auto emit = [&](const std::string& suffix, const CsvWriter& csv) {
        std::string path = directory + "/" + stem + suffix;
        if (csv.writeTo(path))
            written.push_back(path);
    };
    auto emitText = [&](const std::string& suffix,
                        const std::string& text) {
        std::string path = directory + "/" + stem + suffix;
        std::ofstream out(path, std::ios::binary);
        if (out && (out << text))
            written.push_back(path);
    };
    emit("_summary.csv", summaryCsv({&result, 1}));
    emit("_gpus.csv", gpuMetricsCsv(result));
    emit("_breakdown.csv", breakdownCsv(result));
    if (!result.series.empty())
        emit("_series.csv", seriesCsv(result));
    std::optional<obs::PhaseReport> phases;
    if (result.trace) {
        std::string path = directory + "/" + stem + "_trace.json";
        if (writeUnifiedTrace(result, path))
            written.push_back(path);
        phases = phaseReport(result);
        emit("_phases.csv", phases->toCsv());
    }
    if (result.goodputValid)
        emit("_goodput.csv", result.goodput.toCsv());
    if (result.critPath)
        emit("_critpath.csv", result.critPath->toCsv());
    emitText("_report.json",
             runReportJson(result, phases ? &*phases : nullptr));
    return written;
}

} // namespace core
} // namespace charllm
