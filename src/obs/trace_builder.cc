#include "obs/trace_builder.hh"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <numeric>
#include <set>

#include "common/strings.hh"
#include "hw/kernel.hh"

namespace charllm {
namespace obs {

namespace {

/** Text a file-backed writer holds before draining it to disk. */
constexpr std::size_t kFlushBytes = std::size_t{1} << 20;

} // namespace

class TraceBuilder::Writer
{
  public:
    /** @p file, when set, receives the text every kFlushBytes. */
    explicit Writer(std::ofstream* file) : file(file)
    {
        // Headroom for the event that crosses the threshold.
        if (file != nullptr)
            text.reserve(kFlushBytes + kFlushBytes / 16);
    }

    /** Drain the buffered text into the file. */
    void
    flush()
    {
        file->write(text.data(),
                    static_cast<std::streamsize>(text.size()));
        text.clear();
    }

    void
    meta(const char* metaName, int pid, const char* argKey,
         const std::string& argValue)
    {
        open();
        text += "{\"name\":\"";
        text += metaName;
        text += "\",\"ph\":\"M\",\"pid\":";
        integer(pid);
        text += ",\"tid\":0,\"args\":{\"";
        text += argKey;
        text += "\":\"";
        appendJsonEscaped(text, argValue.c_str());
        close("\"}}");
    }

    void
    threadName(int pid, int tid, const char* name)
    {
        open();
        text += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
        integer(pid);
        text += ",\"tid\":";
        integer(tid);
        text += ",\"args\":{\"name\":\"";
        appendJsonEscaped(text, name);
        close("\"}}");
    }

    void
    sortIndex(int pid, int index)
    {
        open();
        text += "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":";
        integer(pid);
        text += ",\"tid\":0,\"args\":{\"sort_index\":";
        integer(index);
        close("}}");
    }

    void
    span(const char* name, const char* cat, int pid, int tid,
         double startSec, double durSec)
    {
        open();
        text += "{\"name\":\"";
        appendJsonEscaped(text, name);
        text += "\",\"cat\":\"";
        appendJsonEscaped(text, cat);
        text += "\",\"ph\":\"X\",\"pid\":";
        integer(pid);
        text += ",\"tid\":";
        integer(tid);
        text += ",\"ts\":";
        number(startSec * 1e6);
        text += ",\"dur\":";
        number(durSec * 1e6);
        close("}");
    }

    void
    counter(const char* name, int pid, double tSec, double value)
    {
        open();
        text += "{\"name\":\"";
        text += name;
        text += "\",\"ph\":\"C\",\"pid\":";
        integer(pid);
        text += ",\"ts\":";
        number(tSec * 1e6);
        text += ",\"args\":{\"value\":";
        number(value);
        close("}}");
    }

    std::string text;

  private:
    /** Start an event: every one after the first is ','-separated. */
    void
    open()
    {
        if (!first)
            text += ',';
        first = false;
    }

    /** End an event, draining the buffer once it is full. */
    void
    close(const char* tail)
    {
        text += tail;
        if (file != nullptr && text.size() >= kFlushBytes)
            flush();
    }

    void
    integer(int value)
    {
        char buf[16];
        auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
        text.append(buf, end);
    }

    /** Round-trippable number formatting for timestamps/values. */
    void number(double value) { appendDouble(text, value, 17); }

    std::ofstream* file;
    bool first = true;
};

void
TraceBuilder::addKernels(const telemetry::KernelTrace& trace)
{
    kernels = &trace;
}

void
TraceBuilder::addCounters(int gpu,
                          const std::vector<telemetry::Sample>& series)
{
    counters[gpu] = &series;
}

void
TraceBuilder::addRunSpan(const char* category, const std::string& name,
                         double startSec, double durSec)
{
    runSpans.push_back(
        RunSpan{category != nullptr ? category : "run", name, startSec,
                durSec});
}

double
TraceBuilder::horizonSec() const
{
    double horizon = kernels != nullptr ? kernels->horizonSec() : 0.0;
    for (const auto& [gpu, series] : counters) {
        if (!series->empty())
            horizon =
                std::max(horizon, series->back().time.value());
    }
    for (const auto& s : runSpans) {
        if (s.durSec >= 0.0)
            horizon = std::max(horizon, s.startSec + s.durSec);
    }
    return horizon;
}

std::string
TraceBuilder::toJson() const
{
    Writer w(nullptr);
    emit(w);
    return std::move(w.text);
}

bool
TraceBuilder::writeTo(const std::string& path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    Writer w(&out);
    emit(w);
    w.flush();
    return static_cast<bool>(out);
}

void
TraceBuilder::emit(Writer& w) const
{
    // The set of GPU "processes": everything that produced a kernel
    // span, a fault overlay, or a counter series. Device -1 (an
    // unattributed fault) is kept and labelled as such.
    std::set<int> devices;
    if (kernels != nullptr) {
        for (const auto& e : kernels->all())
            devices.insert(e.device);
        for (const auto& f : kernels->faultSpans())
            devices.insert(f.device);
    }
    for (const auto& [gpu, series] : counters)
        devices.insert(gpu);

    int maxDevice = devices.empty() ? -1 : *devices.rbegin();
    const int runPid = maxDevice + 1;
    const double horizon = horizonSec();

    // Run-span categories ("iteration", "resilience",
    // "critical_path", ...) each get their own thread in the run
    // process, tid assigned in first-seen order, so every category is
    // an independently time-sorted track (schema v2; v1 put all run
    // spans on one thread, which broke the per-track sort contract as
    // soon as two categories interleaved in time).
    std::vector<std::string> runCats;
    for (const auto& s : runSpans) {
        if (std::find(runCats.begin(), runCats.end(), s.cat) ==
            runCats.end())
            runCats.push_back(s.cat);
    }

    w.text += "{\"schemaVersion\":2,\"traceEvents\":[";

    // Track metadata: one process per GPU (pid == device id), with
    // named threads for kernel spans (tid 0) and fault overlays
    // (tid 1); counter tracks attach to the process directly. A
    // trailing "run" process carries cluster-wide marker spans.
    int sortIndex = 0;
    for (int dev : devices) {
        std::string label =
            dev < 0 ? std::string("cluster")
                    : "GPU" + std::to_string(dev);
        w.meta("process_name", dev, "name", label);
        w.sortIndex(dev, sortIndex++);
        w.threadName(dev, 0, "kernels");
        w.threadName(dev, 1, "faults");
    }
    if (!runSpans.empty()) {
        w.meta("process_name", runPid, "name", "run");
        w.sortIndex(runPid, sortIndex++);
        for (std::size_t t = 0; t < runCats.size(); ++t)
            w.threadName(runPid, static_cast<int>(t),
                         runCats[t].c_str());
    }

    // Kernel spans, time-sorted per device. The stable sort keeps the
    // recording order for identical (device, start) pairs, so output
    // is byte-deterministic. Sorting indices, not event copies, keeps
    // the sort's memory a small fraction of the text it orders.
    if (kernels != nullptr) {
        const auto& events = kernels->all();
        std::vector<std::size_t> order(events.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [&events](std::size_t a, std::size_t b) {
                             if (events[a].device != events[b].device)
                                 return events[a].device <
                                        events[b].device;
                             return events[a].startSec <
                                    events[b].startSec;
                         });
        for (std::size_t i : order) {
            const auto& e = events[i];
            w.span(e.name, hw::kernelClassName(e.cls), e.device, 0,
                   e.startSec, e.durSec);
        }

        // Fault overlays: open-ended spans clip to the trace horizon
        // so Perfetto never sees a negative duration.
        std::vector<telemetry::FaultSpan> faults(
            kernels->faultSpans().begin(),
            kernels->faultSpans().end());
        std::stable_sort(faults.begin(), faults.end(),
                         [](const telemetry::FaultSpan& a,
                            const telemetry::FaultSpan& b) {
                             if (a.device != b.device)
                                 return a.device < b.device;
                             return a.startSec < b.startSec;
                         });
        for (const auto& f : faults) {
            double dur =
                f.durSec >= 0.0
                    ? f.durSec
                    : std::max(horizon - f.startSec, 0.0);
            w.span(f.name, "fault", f.device, 1, f.startSec, dur);
        }
    }

    // Counter tracks, per GPU in device order, each series already in
    // time order. Link rates are converted bytes/s -> Gbit/s to match
    // the paper's interconnect plots.
    for (const auto& [gpu, series] : counters) {
        for (const auto& s : *series) {
            double t = s.time.value();
            w.counter("power_w", gpu, t, s.powerWatts.value());
            w.counter("temp_c", gpu, t, s.tempC.value());
            w.counter("clock_ghz", gpu, t, s.clockGhz);
            w.counter("occupancy", gpu, t, s.occupancy);
            w.counter("pcie_gbps", gpu, t,
                      s.pcieRate.value() * 8.0 / 1e9);
            w.counter("scaleup_gbps", gpu, t,
                      s.scaleUpRate.value() * 8.0 / 1e9);
        }
    }

    // Cluster-wide marker spans (iterations, restart windows,
    // critical-path segments), one thread per category, each track
    // time-sorted (stable sort keeps insertion order on ties, so
    // output stays byte-deterministic).
    for (std::size_t t = 0; t < runCats.size(); ++t) {
        std::vector<const RunSpan*> spans;
        for (const auto& s : runSpans) {
            if (s.cat == runCats[t])
                spans.push_back(&s);
        }
        std::stable_sort(spans.begin(), spans.end(),
                         [](const RunSpan* a, const RunSpan* b) {
                             return a->startSec < b->startSec;
                         });
        for (const RunSpan* s : spans) {
            double dur = s->durSec >= 0.0
                             ? s->durSec
                             : std::max(horizon - s->startSec, 0.0);
            w.span(s->name.c_str(), s->cat.c_str(), runPid,
                   static_cast<int>(t), s->startSec, dur);
        }
    }

    w.text += "],\"displayTimeUnit\":\"ms\"}";
}

} // namespace obs
} // namespace charllm
