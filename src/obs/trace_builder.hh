/**
 * @file
 * Unified Chrome/Perfetto trace builder: merges kernel spans, fault
 * overlays, sampled counter tracks (power, temperature, clock,
 * occupancy, per-class link rates), and run-level marker spans
 * (iterations, restarts) into one JSON timeline on the shared
 * simulated clock.
 *
 * Layout (see DESIGN.md "Observability architecture" for the full
 * schema, stamped as top-level "schemaVersion": 2): one Chrome
 * "process" per GPU (pid == device id) holding a "kernels" thread, a
 * "faults" thread, and the GPU's counter tracks; plus one trailing
 * "run" process for cluster-wide marker spans, one thread per span
 * category ("iteration", "resilience", "critical_path", ...) so each
 * category is an independently time-sorted track.
 * Open-ended fault spans are clipped to the trace horizon, kernel
 * spans are emitted time-sorted per device, and all strings are
 * JSON-escaped, so the output always parses and loads in Perfetto UI
 * or chrome://tracing.
 *
 * Builders hold pointers into the supplied trace/series; callers keep
 * those alive until toJson()/writeTo() is done (they are run-report
 * artifacts, built after the simulation finishes). writeTo() streams
 * the text to disk in 1 MiB pieces, so a trace is never held whole.
 */

#ifndef CHARLLM_OBS_TRACE_BUILDER_HH
#define CHARLLM_OBS_TRACE_BUILDER_HH

#include <map>
#include <string>
#include <vector>

#include "telemetry/sampler.hh"
#include "telemetry/trace.hh"

namespace charllm {
namespace obs {

/** Merges per-run telemetry artifacts into one Perfetto JSON. */
class TraceBuilder
{
  public:
    TraceBuilder() = default;

    /** Attach kernel spans + fault overlays (kept by reference). */
    void addKernels(const telemetry::KernelTrace& trace);

    /** Attach one GPU's sampled counter series (kept by reference). */
    void addCounters(int gpu,
                     const std::vector<telemetry::Sample>& series);

    /** Add one marker span to the cluster-wide "run" process (e.g.
     *  an iteration, a checkpoint restart window). */
    void addRunSpan(const char* category, const std::string& name,
                    double startSec, double durSec);

    /** Serialize the merged timeline. */
    std::string toJson() const;

    /** Write toJson()'s text to @p path, flushing every 1 MiB;
     *  false on I/O failure. */
    bool writeTo(const std::string& path) const;

  private:
    /** Appends events to a text buffer, optionally draining it into a
     *  file as it fills (defined in trace_builder.cc). */
    class Writer;

    /** The one serializer behind toJson() and writeTo(). */
    void emit(Writer& w) const;

    struct RunSpan
    {
        std::string cat;
        std::string name;
        double startSec = 0.0;
        double durSec = 0.0;
    };

    /** Latest end time over everything added (for clipping). */
    double horizonSec() const;

    const telemetry::KernelTrace* kernels = nullptr;
    std::map<int, const std::vector<telemetry::Sample>*> counters;
    std::vector<RunSpan> runSpans;
};

} // namespace obs
} // namespace charllm

#endif // CHARLLM_OBS_TRACE_BUILDER_HH
