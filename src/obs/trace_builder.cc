#include "obs/trace_builder.hh"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/logging.hh"
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

    /** A counter event's text up to its timestamp, for track @p name
     *  of process @p pid, into @p out (replacing its text). */
    static void
    counterPrefix(std::string& out, const char* name, int pid)
    {
        out = "{\"name\":\"";
        out += name;
        out += "\",\"ph\":\"C\",\"pid\":";
        appendInt(out, pid);
        out += ",\"ts\":";
    }

    /** One counter sample: @p prefix is its track's counterPrefix,
     *  @p ts its formatted timestamp with the args key appended,
     *  shared by every track of the sample. */
    void
    counter(const std::string& prefix, const std::string& ts,
            double value)
    {
        open();
        text += prefix;
        text += ts;
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

    static void
    appendInt(std::string& out, int value)
    {
        char buf[16];
        auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
        out.append(buf, end);
    }

    void integer(int value) { appendInt(text, value); }

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
    // The GPU "processes": everything that produced a kernel span, a
    // fault overlay, or a counter series. Device -1 (an unattributed
    // fault, or span) is kept and labelled as such. Both tables are
    // indexed device + 1.
    std::vector<char> present;
    std::vector<std::size_t> spansOf; // kernel spans per device
    auto mark = [&present, &spansOf](int dev) {
        CHARLLM_ASSERT(dev >= -1, "trace device ", dev);
        auto slot = static_cast<std::size_t>(dev + 1);
        if (slot >= present.size()) {
            present.resize(slot + 1, 0);
            spansOf.resize(slot + 1, 0);
        }
        present[slot] = 1;
        return slot;
    };
    if (kernels != nullptr) {
        for (const auto& e : kernels->all())
            ++spansOf[mark(e.device)];
        for (const auto& f : kernels->faultSpans())
            mark(f.device);
    }
    for (const auto& [gpu, series] : counters)
        mark(gpu);

    // The run process follows the highest device (the last slot is
    // always marked), or is 0 without devices.
    const int runPid = std::max(static_cast<int>(present.size()) - 1, 0);
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
    for (std::size_t slot = 0; slot < present.size(); ++slot) {
        if (!present[slot])
            continue;
        const int dev = static_cast<int>(slot) - 1;
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

    // Kernel spans, time-sorted per device: a stable bucket pass by
    // device, then a stable sort of each bucket by start, which keeps
    // the recording order for identical (device, start) pairs, so
    // output is byte-deterministic. Sorting indices, not event copies,
    // keeps the sort's memory a small fraction of the text it orders.
    if (kernels != nullptr) {
        const auto& events = kernels->all();
        std::vector<std::size_t> order(events.size());
        std::size_t begin = 0;
        for (auto& n : spansOf)
            begin += std::exchange(n, begin); // now each bucket's start
        for (std::size_t i = 0; i < events.size(); ++i) {
            auto slot = static_cast<std::size_t>(events[i].device + 1);
            order[spansOf[slot]++] = i; // ends as the bucket's end
        }
        begin = 0;
        for (std::size_t end : spansOf) {
            std::stable_sort(order.begin() + begin, order.begin() + end,
                             [&events](std::size_t a, std::size_t b) {
                                 return events[a].startSec <
                                        events[b].startSec;
                             });
            begin = end;
        }
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
    // the paper's interconnect plots. A track's text up to the
    // timestamp is built once per GPU, a sample's timestamp once for
    // its six tracks.
    static constexpr const char* kTracks[] = {
        "power_w",   "temp_c",    "clock_ghz",
        "occupancy", "pcie_gbps", "scaleup_gbps"};
    std::string prefix[std::size(kTracks)];
    std::string ts;
    for (const auto& [gpu, series] : counters) {
        for (std::size_t t = 0; t < std::size(kTracks); ++t)
            Writer::counterPrefix(prefix[t], kTracks[t], gpu);
        for (const auto& s : *series) {
            ts.clear();
            appendDouble(ts, s.time.value() * 1e6, 17);
            ts += ",\"args\":{\"value\":";
            w.counter(prefix[0], ts, s.powerWatts.value());
            w.counter(prefix[1], ts, s.tempC.value());
            w.counter(prefix[2], ts, s.clockGhz);
            w.counter(prefix[3], ts, s.occupancy);
            w.counter(prefix[4], ts, s.pcieRate.value() * 8.0 / 1e9);
            w.counter(prefix[5], ts, s.scaleUpRate.value() * 8.0 / 1e9);
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
