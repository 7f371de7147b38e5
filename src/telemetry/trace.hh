/**
 * @file
 * Chakra-style kernel trace: per-device kernel events with class,
 * name, start, and duration, exported (with its fault overlays) by
 * obs::TraceBuilder as Chrome/Perfetto JSON. The paper collects
 * execution traces with the Chakra profiler; this is the
 * simulation-side equivalent.
 *
 * Event names are `const char*` pointers that outlive the trace: the
 * runtime always emits string literals, so record() stores the pointer
 * verbatim and never allocates.
 */

#ifndef CHARLLM_TELEMETRY_TRACE_HH
#define CHARLLM_TELEMETRY_TRACE_HH

#include <vector>

#include "hw/kernel.hh"

namespace charllm {
namespace telemetry {

/** One traced kernel execution. */
struct TraceEvent
{
    int device = 0;
    hw::KernelClass cls = hw::KernelClass::Gemm;
    /** Outlives the trace (the runtime passes string literals); never
     *  owned by the event. */
    const char* name = "";
    double startSec = 0.0;
    double durSec = 0.0;
};

/** One fault interval overlaid on the kernel timeline. */
struct FaultSpan
{
    int device = 0;      //!< attributed GPU (-1 if unattributed)
    const char* name = ""; //!< fault kind label (outlives the trace)
    double startSec = 0.0;
    double durSec = 0.0; //!< < 0 means "until end of run"
};

/**
 * Kernel trace sink. Wire record() into
 * TrainingEngine::setTraceSink.
 */
class KernelTrace
{
  public:
    /**
     * Record one kernel span. @p name must outlive the trace (the
     * runtime passes string literals). No allocation on this path.
     */
    void
    record(int device, hw::KernelClass cls, const char* name,
           double start, double dur)
    {
        events.push_back(TraceEvent{device, cls, name, start, dur});
    }

    /** Overlay one fault interval (shown as a "fault" category row).
     *  @p name follows the same lifetime contract as record(). */
    void
    recordFault(int device, const char* name, double start, double dur)
    {
        faults.push_back(FaultSpan{device, name, start, dur});
    }

    void
    clear()
    {
        events.clear();
        faults.clear();
    }

    const std::vector<TraceEvent>& all() const { return events; }
    const std::vector<FaultSpan>& faultSpans() const { return faults; }
    std::size_t size() const { return events.size(); }

    /** Per-class busy time for one device over [from, inf). */
    hw::KernelTimeBreakdown breakdown(int device,
                                      double from = 0.0) const;

    /** Latest kernel/fault end time (0 when empty). */
    double horizonSec() const;

  private:
    std::vector<TraceEvent> events;
    std::vector<FaultSpan> faults;
};

} // namespace telemetry
} // namespace charllm

#endif // CHARLLM_TELEMETRY_TRACE_HH
