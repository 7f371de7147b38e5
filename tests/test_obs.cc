/**
 * @file
 * Tests for the observability layer: the unified Perfetto trace
 * builder, the phase-attribution engine, and the metrics registry.
 * Trace output is checked with a small strict JSON parser, so every
 * golden test also proves the serialized bytes are valid JSON.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "faults/scenarios.hh"
#include "obs/metrics.hh"
#include "obs/phase.hh"
#include "obs/trace_builder.hh"
#include "telemetry/sampler.hh"
#include "telemetry/trace.hh"

namespace {

using namespace charllm;

// ---- a strict minimal JSON parser --------------------------------------
// Just enough JSON to verify trace/metrics output: objects, arrays,
// strings with escapes, numbers, booleans, null. Throws on any syntax
// error, so "parses" is a real assertion.

struct JsonValue
{
    enum Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> fields;

    const JsonValue&
    at(const std::string& key) const
    {
        auto it = fields.find(key);
        if (it == fields.end())
            throw std::runtime_error("missing key: " + key);
        return it->second;
    }
    bool has(const std::string& key) const
    {
        return fields.count(key) != 0;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string& text) : s(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        ws();
        if (pos != s.size())
            throw std::runtime_error("trailing bytes after JSON");
        return v;
    }

  private:
    void
    ws()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        if (pos >= s.size())
            throw std::runtime_error("unexpected end of JSON");
        return s[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            throw std::runtime_error(std::string("expected '") + c +
                                     "' at byte " +
                                     std::to_string(pos));
        ++pos;
    }

    JsonValue
    value()
    {
        ws();
        char c = peek();
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"') {
            JsonValue v;
            v.kind = JsonValue::String;
            v.str = string();
            return v;
        }
        if (c == 't' || c == 'f')
            return boolean();
        if (c == 'n') {
            literal("null");
            return JsonValue{};
        }
        return number();
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Object;
        ws();
        if (peek() == '}') {
            ++pos;
            return v;
        }
        for (;;) {
            ws();
            std::string key = string();
            ws();
            expect(':');
            v.fields[key] = value();
            ws();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Array;
        ws();
        if (peek() == ']') {
            ++pos;
            return v;
        }
        for (;;) {
            v.items.push_back(value());
            ws();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        for (;;) {
            char c = peek();
            ++pos;
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                throw std::runtime_error(
                    "raw control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            char esc = peek();
            ++pos;
            switch (esc) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'n': out.push_back('\n'); break;
            case 't': out.push_back('\t'); break;
            case 'r': out.push_back('\r'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'u': {
                if (pos + 4 > s.size())
                    throw std::runtime_error("truncated \\u escape");
                int code = std::stoi(s.substr(pos, 4), nullptr, 16);
                pos += 4;
                out.push_back(static_cast<char>(code)); // BMP-lite
                break;
            }
            default:
                throw std::runtime_error("bad escape");
            }
        }
    }

    JsonValue
    boolean()
    {
        JsonValue v;
        v.kind = JsonValue::Bool;
        if (peek() == 't') {
            literal("true");
            v.boolean = true;
        } else {
            literal("false");
        }
        return v;
    }

    JsonValue
    number()
    {
        std::size_t start = pos;
        if (peek() == '-')
            ++pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
                s[pos] == '+' || s[pos] == '-'))
            ++pos;
        if (pos == start)
            throw std::runtime_error("bad number");
        JsonValue v;
        v.kind = JsonValue::Number;
        v.number = std::stod(s.substr(start, pos - start));
        return v;
    }

    void
    literal(const char* lit)
    {
        for (const char* p = lit; *p != '\0'; ++p) {
            if (peek() != *p)
                throw std::runtime_error("bad literal");
            ++pos;
        }
    }

    const std::string& s;
    std::size_t pos = 0;
};

JsonValue
parseJson(const std::string& text)
{
    return JsonParser(text).parse();
}

telemetry::Sample
makeSample(double t, double watts)
{
    telemetry::Sample s;
    s.time = Seconds(t);
    s.powerWatts = Watts(watts);
    s.tempC = Celsius(40.0);
    s.clockGhz = 1.8;
    s.occupancy = 0.5;
    s.pcieRate = BytesPerSec(1e9);
    s.scaleUpRate = BytesPerSec(2e9);
    return s;
}

// ---- trace builder ------------------------------------------------------

TEST(TraceBuilder, UnifiedTraceParsesAndHasAllTracks)
{
    telemetry::KernelTrace trace;
    trace.record(0, hw::KernelClass::Gemm, "fwd", 0.0, 0.5);
    trace.record(1, hw::KernelClass::AllReduce, "ar", 0.2, 0.3);
    trace.recordFault(0, "hot-inlet", 0.1, 0.2);

    std::vector<telemetry::Sample> s0 = {makeSample(0.1, 300.0),
                                         makeSample(0.2, 310.0)};
    obs::TraceBuilder builder;
    builder.addKernels(trace);
    builder.addCounters(0, s0);
    builder.addRunSpan("iteration", "iteration 0", 0.0, 0.5);

    JsonValue doc = parseJson(builder.toJson());
    const JsonValue& events = doc.at("traceEvents");
    ASSERT_EQ(events.kind, JsonValue::Array);

    int kernels = 0, faults = 0, counters = 0, meta = 0, runs = 0;
    for (const auto& e : events.items) {
        const std::string& ph = e.at("ph").str;
        if (ph == "M")
            ++meta;
        else if (ph == "C")
            ++counters;
        else if (ph == "X" && e.at("cat").str == "fault")
            ++faults;
        else if (ph == "X" && e.at("cat").str == "iteration")
            ++runs;
        else if (ph == "X")
            ++kernels;
    }
    EXPECT_EQ(kernels, 2);
    EXPECT_EQ(faults, 1);
    EXPECT_EQ(runs, 1);
    // 2 samples x 6 counter tracks.
    EXPECT_EQ(counters, 12);
    // 2 GPU processes x 4 meta + run process x 3 meta.
    EXPECT_EQ(meta, 11);
}

TEST(TraceBuilder, EscapesDynamicNames)
{
    telemetry::KernelTrace trace;
    const char* tricky = "layer \"7\"\nbackslash\\";
    trace.record(0, hw::KernelClass::Gemm, tricky, 0.0, 1.0);

    obs::TraceBuilder builder;
    builder.addKernels(trace);
    std::string json = builder.toJson();

    JsonValue doc = parseJson(json); // throws on raw control chars
    bool found = false;
    for (const auto& e : doc.at("traceEvents").items) {
        if (e.at("ph").str == "X" &&
            e.at("name").str == "layer \"7\"\nbackslash\\")
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(TraceBuilder, WriteToMatchesToJson)
{
    // Large enough that writeTo() drains its 1 MiB buffer several times
    // mid-trace, with escaped names and a clipped open-ended fault
    // landing on both sides of a drain.
    telemetry::KernelTrace trace;
    const char* tricky = "layer \"7\"\nbackslash\\\x01";
    for (int i = 0; i < 40000; ++i) {
        double t = i * 1.25e-4;
        trace.record(i % 8, hw::KernelClass::Gemm,
                     i % 3 == 0 ? tricky : "fwd_gemm", t, 1e-4 / 3.0);
    }
    trace.recordFault(2, "gpu-slowdown", 0.5, -1.0);
    trace.recordFault(-1, tricky, 1.0, 0.25);
    std::vector<std::vector<telemetry::Sample>> series(8);
    for (int g = 0; g < 8; ++g) {
        for (int i = 0; i < 400; ++i)
            series[g].push_back(makeSample(i * 0.0125, 300.0 + g + i / 7.0));
    }
    obs::TraceBuilder builder;
    builder.addKernels(trace);
    for (int g = 0; g < 8; ++g)
        builder.addCounters(g, series[g]);
    builder.addRunSpan("iteration", "iteration 0", 0.0, 2.5);
    builder.addRunSpan("odd \"cat\"", "restart\twindow", 1.0, -1.0);

    std::string json = builder.toJson();
    ASSERT_GE(json.size(), std::size_t{3} << 20);
    std::string path = ::testing::TempDir() + "charllm_write_to.json";
    ASSERT_TRUE(builder.writeTo(path));
    std::ifstream in(path, std::ios::binary);
    std::string written((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(written.size(), json.size());
    EXPECT_TRUE(written == json) << "streamed trace differs from toJson()";
    parseJson(json); // throws unless every name was escaped
    std::remove(path.c_str());

    EXPECT_FALSE(builder.writeTo(path + ".missing/x.json"));
}

TEST(TraceBuilder, ClipsOpenEndedFaultSpans)
{
    telemetry::KernelTrace trace;
    trace.record(0, hw::KernelClass::Gemm, "k", 0.0, 2.0);
    trace.recordFault(0, "gpu-slowdown", 0.5, -1.0); // until run end

    obs::TraceBuilder builder;
    builder.addKernels(trace);
    JsonValue doc = parseJson(builder.toJson());
    bool found = false;
    for (const auto& e : doc.at("traceEvents").items) {
        if (e.at("ph").str != "X" || e.at("cat").str != "fault")
            continue;
        found = true;
        EXPECT_GE(e.at("dur").number, 0.0);
        // Clipped to the kernel horizon: (2.0 - 0.5) s in us.
        EXPECT_NEAR(e.at("dur").number, 1.5e6, 1.0);
    }
    EXPECT_TRUE(found);
}

TEST(TraceBuilder, SpansSortedPerDeviceAndDeterministic)
{
    auto build = [] {
        telemetry::KernelTrace trace;
        trace.record(1, hw::KernelClass::Gemm, "c", 2.0, 0.5);
        trace.record(0, hw::KernelClass::Gemm, "b", 1.0, 0.5);
        trace.record(0, hw::KernelClass::Gemm, "a", 0.0, 0.5);
        trace.record(1, hw::KernelClass::Gemm, "d", 0.5, 0.5);
        obs::TraceBuilder builder;
        builder.addKernels(trace);
        return builder.toJson();
    };
    std::string json = build();
    EXPECT_EQ(json, build()) << "builder output must be deterministic";

    JsonValue doc = parseJson(json);
    std::map<std::pair<int, int>, double> lastTs;
    for (const auto& e : doc.at("traceEvents").items) {
        if (e.at("ph").str != "X")
            continue;
        std::pair<int, int> key = {
            static_cast<int>(e.at("pid").number),
            static_cast<int>(e.at("tid").number)};
        double ts = e.at("ts").number;
        auto it = lastTs.find(key);
        if (it != lastTs.end()) {
            EXPECT_GE(ts, it->second);
        }
        lastTs[key] = ts;
    }
}

TEST(TraceBuilder, SpanOrderMatchesStableSort)
{
    // Seeded spans on interleaved devices (one of them -1), starts out
    // of order within a device and equal (device, start) pairs, each
    // span uniquely named: the emitted order must be a stable sort on
    // (device, start) of the recording order.
    Rng rng(29);
    telemetry::KernelTrace trace;
    const int devices[] = {5, 0, 2, -1, 0, 2, 5, 0};
    std::vector<std::string> names(600); // outlives both traces
    for (int i = 0; i < 600; ++i) {
        int dev = devices[rng.next() % std::size(devices)];
        double start = static_cast<double>(rng.next() % 40) * 0.125;
        names[i] = "k" + std::to_string(i);
        trace.record(dev, hw::KernelClass::Gemm, names[i].c_str(), start,
                     0.1);
    }
    trace.recordFault(-1, "link-down", 1.0, 0.5);
    trace.recordFault(2, "gpu-slowdown", 0.5, -1.0);
    trace.recordFault(-1, "link-down", 0.25, 0.5);
    // Device 4 has only counters; device 3 has nothing at all.
    std::vector<telemetry::Sample> s0 = {makeSample(0.0, 300.0),
                                         makeSample(0.02, 301.5)};
    std::vector<telemetry::Sample> s4 = {makeSample(0.0, 250.0),
                                         makeSample(0.02, 251.0),
                                         makeSample(0.04, 252.25)};

    // The reference order: event copies, stable-sorted.
    std::vector<telemetry::TraceEvent> sorted = trace.all();
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const telemetry::TraceEvent& a,
                        const telemetry::TraceEvent& b) {
                         if (a.device != b.device)
                             return a.device < b.device;
                         return a.startSec < b.startSec;
                     });
    telemetry::KernelTrace presorted;
    for (const auto& e : sorted)
        presorted.record(e.device, e.cls, e.name, e.startSec, e.durSec);
    for (const auto& f : trace.faultSpans())
        presorted.recordFault(f.device, f.name, f.startSec, f.durSec);

    auto json = [&](const telemetry::KernelTrace& kernels) {
        obs::TraceBuilder builder;
        builder.addKernels(kernels);
        builder.addCounters(0, s0);
        builder.addCounters(4, s4);
        builder.addRunSpan("iteration", "iteration 0", 0.0, 5.0);
        return builder.toJson();
    };
    std::string got = json(trace);
    EXPECT_TRUE(got == json(presorted))
        << "span order differs from a stable (device, start) sort";

    JsonValue doc = parseJson(got);
    std::vector<std::string> spanNames;
    std::vector<int> processes;
    std::map<std::pair<int, int>, double> lastSpan;
    std::map<std::pair<int, std::string>, double> lastCounter;
    for (const auto& e : doc.at("traceEvents").items) {
        const std::string& ph = e.at("ph").str;
        int pid = static_cast<int>(e.at("pid").number);
        if (ph == "M" && e.at("name").str == "process_name")
            processes.push_back(pid);
        if (ph == "X" && e.at("cat").str == "GEMM")
            spanNames.push_back(e.at("name").str);
        // validate_trace.py's contract: every span track and every
        // counter track is time-sorted.
        if (ph == "X") {
            auto key = std::make_pair(
                pid, static_cast<int>(e.at("tid").number));
            auto it = lastSpan.find(key);
            if (it != lastSpan.end())
                EXPECT_GE(e.at("ts").number, it->second);
            lastSpan[key] = e.at("ts").number;
            EXPECT_GE(e.at("dur").number, 0.0);
        }
        if (ph == "C") {
            auto key = std::make_pair(pid, e.at("name").str);
            auto it = lastCounter.find(key);
            if (it != lastCounter.end())
                EXPECT_GE(e.at("ts").number, it->second);
            lastCounter[key] = e.at("ts").number;
        }
    }
    ASSERT_EQ(spanNames.size(), sorted.size());
    for (std::size_t i = 0; i < sorted.size(); ++i)
        EXPECT_EQ(spanNames[i], sorted[i].name) << "span " << i;
    // One process per device that has any track, then the run process.
    EXPECT_EQ(processes, (std::vector<int>{-1, 0, 2, 4, 5, 6}));
}

TEST(TraceBuilder, CounterTracksCarryGpuPid)
{
    std::vector<telemetry::Sample> s1 = {makeSample(0.25, 500.0)};
    obs::TraceBuilder builder;
    builder.addCounters(3, s1);
    JsonValue doc = parseJson(builder.toJson());
    bool sawPower = false;
    for (const auto& e : doc.at("traceEvents").items) {
        if (e.at("ph").str != "C")
            continue;
        EXPECT_EQ(static_cast<int>(e.at("pid").number), 3);
        EXPECT_NEAR(e.at("ts").number, 0.25e6, 1e-6);
        if (e.at("name").str == "power_w") {
            sawPower = true;
            EXPECT_DOUBLE_EQ(e.at("args").at("value").number, 500.0);
        }
    }
    EXPECT_TRUE(sawPower);
}

// ---- phase attribution --------------------------------------------------

TEST(PhaseAttribution, SyntheticTimelineSplitsExactly)
{
    // dev0: compute [0,1), exposed comm [1,1.5); dev1: compute
    // [0,0.5), then bubbling while dev0 works, then both idle to 2.0.
    telemetry::KernelTrace trace;
    trace.record(0, hw::KernelClass::Gemm, "g", 0.0, 1.0);
    trace.record(0, hw::KernelClass::AllReduce, "ar", 1.0, 0.5);
    trace.record(1, hw::KernelClass::Gemm, "g", 0.0, 0.5);

    // Constant 100 W on both devices, sampled every 0.5 s to 2.0 s.
    std::vector<std::vector<telemetry::Sample>> series(2);
    for (int g = 0; g < 2; ++g)
        for (double t = 0.5; t <= 2.0; t += 0.5)
            series[g].push_back(makeSample(t, 100.0));

    obs::PhaseReport report =
        obs::attributePhases(trace, series, 0.0, 2.0);
    ASSERT_EQ(report.gpus.size(), 2u);

    auto slice = [&](int gpu, obs::Phase p) {
        return report.gpus[gpu]
            .phases[static_cast<std::size_t>(p)];
    };
    EXPECT_DOUBLE_EQ(slice(0, obs::Phase::Compute).seconds, 1.0);
    EXPECT_DOUBLE_EQ(slice(0, obs::Phase::ExposedComm).seconds, 0.5);
    EXPECT_DOUBLE_EQ(slice(0, obs::Phase::Bubble).seconds, 0.0);
    EXPECT_DOUBLE_EQ(slice(0, obs::Phase::Idle).seconds, 0.5);

    EXPECT_DOUBLE_EQ(slice(1, obs::Phase::Compute).seconds, 0.5);
    EXPECT_DOUBLE_EQ(slice(1, obs::Phase::ExposedComm).seconds, 0.0);
    EXPECT_DOUBLE_EQ(slice(1, obs::Phase::Bubble).seconds, 1.0);
    EXPECT_DOUBLE_EQ(slice(1, obs::Phase::Idle).seconds, 0.5);

    // Energy at constant 100 W mirrors the durations exactly.
    EXPECT_DOUBLE_EQ(slice(0, obs::Phase::Compute).energyJ, 100.0);
    EXPECT_DOUBLE_EQ(slice(0, obs::Phase::ExposedComm).energyJ, 50.0);
    EXPECT_DOUBLE_EQ(slice(1, obs::Phase::Bubble).energyJ, 100.0);
    EXPECT_DOUBLE_EQ(slice(0, obs::Phase::Compute).avgPowerW(),
                     100.0);

    // Conservation: phase energies sum to the sampler integral.
    EXPECT_DOUBLE_EQ(report.totalEnergyJ(), 2.0 * 2.0 * 100.0);

    // CSV: (2 GPUs + cluster) x 4 phases rows; JSON parses.
    EXPECT_EQ(report.toCsv().numRows(), 12u);
    JsonValue doc = parseJson(report.toJson());
    EXPECT_DOUBLE_EQ(doc.at("total_energy_j").number, 400.0);
    EXPECT_DOUBLE_EQ(doc.at("cluster")
                         .at("compute")
                         .at("seconds")
                         .number,
                     1.5);
}

TEST(PhaseAttribution, SampleIntervalsSplitAcrossPhaseBoundary)
{
    // One compute kernel [0, 0.75); a single sample at t=1.0 covering
    // (0, 1.0] at 200 W must split 0.75/0.25 between compute and
    // idle.
    telemetry::KernelTrace trace;
    trace.record(0, hw::KernelClass::Gemm, "g", 0.0, 0.75);
    std::vector<std::vector<telemetry::Sample>> series(1);
    series[0].push_back(makeSample(1.0, 200.0));

    obs::PhaseReport report =
        obs::attributePhases(trace, series, 0.0, 1.0);
    const auto& phases = report.gpus[0].phases;
    EXPECT_DOUBLE_EQ(
        phases[static_cast<std::size_t>(obs::Phase::Compute)].energyJ,
        150.0);
    EXPECT_DOUBLE_EQ(
        phases[static_cast<std::size_t>(obs::Phase::Idle)].energyJ,
        50.0);
}

TEST(PhaseAttribution, EmptyInputsProduceEmptyReport)
{
    telemetry::KernelTrace trace;
    obs::PhaseReport report = obs::attributePhases(trace, {});
    EXPECT_TRUE(report.gpus.empty());
    EXPECT_DOUBLE_EQ(report.totalEnergyJ(), 0.0);
}

// ---- metrics ------------------------------------------------------------

TEST(Metrics, CounterGaugeSemantics)
{
    obs::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);

    obs::Gauge g;
    g.set(1.5);
    g.set(-2.5);
    EXPECT_DOUBLE_EQ(g.value(), -2.5);
}

TEST(Metrics, HistogramStatsAndBuckets)
{
    obs::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);

    h.observe(1.0);
    h.observe(2.0);
    h.observe(0.5);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 3.5);
    EXPECT_DOUBLE_EQ(h.min(), 0.5);
    EXPECT_DOUBLE_EQ(h.max(), 2.0);
    EXPECT_NEAR(h.mean(), 3.5 / 3.0, 1e-12);

    // 1.0 = 0.5 * 2^1 -> bucket 32: [1, 2). 2.0 -> bucket 33 and
    // 0.5 -> bucket 31.
    EXPECT_EQ(h.bucketCount(32), 1u);
    EXPECT_EQ(h.bucketCount(33), 1u);
    EXPECT_EQ(h.bucketCount(31), 1u);
    EXPECT_DOUBLE_EQ(obs::Histogram::bucketUpperBound(32), 2.0);
}

TEST(Metrics, HistogramQuantilesCrossCheckFixedBins)
{
    // Cross-check the log2-bucket quantile estimate against the exact
    // sample quantile. The log2 estimate returns a bucket upper bound,
    // so for positive data it brackets the true value from above
    // within a factor of 2 (the bucket width).
    obs::Histogram log2Hist;
    std::vector<double> samples;
    std::uint64_t lcg = 0x2545F4914F6CDD1DULL;
    for (int i = 0; i < 4096; ++i) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        // Positive, spanning ~3 decades: [0.001, ~128).
        double x = 0.001 + static_cast<double>(lcg >> 40) / 131072.0;
        samples.push_back(x);
        log2Hist.observe(x);
    }
    std::sort(samples.begin(), samples.end());
    for (double q : {0.5, 0.9, 0.99}) {
        auto idx = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(samples.size())));
        double exact = samples[std::min(idx, samples.size()) - 1];
        double est = log2Hist.quantile(q);
        EXPECT_GE(est, exact) << "q=" << q;
        EXPECT_LE(est, 2.0 * exact) << "q=" << q;
    }
    EXPECT_DOUBLE_EQ(log2Hist.quantile(0.0), log2Hist.min());
    EXPECT_DOUBLE_EQ(log2Hist.quantile(-1.0), log2Hist.min());
    EXPECT_DOUBLE_EQ(log2Hist.quantile(1.0), log2Hist.max());
    EXPECT_DOUBLE_EQ(log2Hist.quantile(2.0), log2Hist.max());
    obs::Histogram empty;
    EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST(Metrics, RegistryStableRefsAndDeterministicDump)
{
    obs::MetricsRegistry reg;
    obs::Counter& a = reg.counter("sim.events_popped");
    a.inc(5);
    // Creating more metrics must not invalidate earlier references.
    for (int i = 0; i < 100; ++i)
        reg.counter("pad." + std::to_string(i));
    a.inc(5);
    EXPECT_EQ(reg.counter("sim.events_popped").value(), 10u);
    EXPECT_EQ(reg.size(), 101u);

    reg.gauge("g.x").set(3.0);
    reg.histogram("h.y").observe(2.0);
    JsonValue doc = parseJson(reg.toJson());
    EXPECT_DOUBLE_EQ(
        doc.at("counters").at("sim.events_popped").number, 10.0);
    EXPECT_DOUBLE_EQ(doc.at("gauges").at("g.x").number, 3.0);
    EXPECT_DOUBLE_EQ(
        doc.at("histograms").at("h.y").at("count").number, 1.0);
}

TEST(Metrics, SimCountersMergeAndAddTo)
{
    obs::SimCounters a;
    a.eventsPopped = 10;
    a.flowsStarted = 3;
    obs::SimCounters b;
    b.eventsPopped = 5;
    b.faultsInjected = 2;
    a.deviceEvals = 7;
    b.deviceEvals = 4;
    b.governorTicks = 9;
    a.ticksFastForwarded = 6;
    b.ticksFastForwarded = 2;
    b.eventsRescheduled = 5;
    a.refreshes = 12;
    b.powerEvals = 3;
    a.merge(b);
    EXPECT_EQ(a.eventsPopped, 15u);
    EXPECT_EQ(a.flowsStarted, 3u);
    EXPECT_EQ(a.faultsInjected, 2u);
    EXPECT_EQ(a.deviceEvals, 11u);

    obs::MetricsRegistry reg;
    a.addTo(reg);
    // Read back through the dump, which throws on a missing counter.
    JsonValue counters = parseJson(reg.toJson()).at("counters");
    for (auto [name, value] : {std::pair{"sim.events_popped", 15.0},
                               {"net.flows_started", 3.0},
                               {"faults.injected", 2.0},
                               {"hw.governor_ticks", 9.0},
                               {"hw.device_evals", 11.0},
                               {"hw.clock_changes", 0.0},
                               {"sim.ticks_fast_forwarded", 8.0},
                               {"sim.events_rescheduled", 5.0},
                               {"hw.refreshes", 12.0},
                               {"hw.power_evals", 3.0}})
        EXPECT_EQ(counters.at(name).number, value) << name;
}

// ---- end-to-end through core::Experiment --------------------------------

struct ObsEndToEnd : ::testing::Test
{
    static core::ExperimentConfig
    config()
    {
        core::ExperimentConfig cfg;
        cfg.cluster = core::h200Cluster(1);
        // Small model so the end-to-end test stays fast.
        cfg.model.name = "Small-3B";
        cfg.model.numLayers = 16;
        cfg.model.hiddenSize = 2560;
        cfg.model.numHeads = 20;
        cfg.model.numQueryGroups = 20;
        cfg.model.ffnHiddenSize = 4 * 2560;
        cfg.model.vocabSize = 32000;
        cfg.model.seqLength = 1024;
        cfg.par = parallel::ParallelConfig::forWorld(8, 2, 4);
        cfg.train.globalBatchSize = 16;
        cfg.warmupIterations = 1;
        cfg.measuredIterations = 1;
        cfg.enableSampler = true;
        cfg.enableTrace = true;
        return cfg;
    }
};

TEST_F(ObsEndToEnd, UnifiedTraceAndPhaseEnergyConservation)
{
    auto cfg = config();
    cfg.faultScenario = faults::scenarios::straggler(1, 0.7, 0.1);
    auto result = core::Experiment::run(cfg);
    ASSERT_TRUE(result.feasible);

    // The unified trace parses and carries every track family.
    JsonValue doc = parseJson(core::unifiedTraceJson(result));
    int kernels = 0, faults = 0, counters = 0, iters = 0;
    for (const auto& e : doc.at("traceEvents").items) {
        const std::string& ph = e.at("ph").str;
        if (ph == "C")
            ++counters;
        else if (ph == "X" && e.at("cat").str == "fault")
            ++faults;
        else if (ph == "X" && e.at("cat").str == "iteration")
            ++iters;
        else if (ph == "X")
            ++kernels;
    }
    EXPECT_GT(kernels, 100);
    EXPECT_GE(faults, 1);
    EXPECT_GT(counters, 100);
    EXPECT_EQ(iters, 2); // 1 warmup + 1 measured

    // Phase energies must sum to the sampler-integrated total
    // (acceptance: within 1%; construction makes it exact).
    obs::PhaseReport phases = core::phaseReport(result);
    double integral = 0.0;
    for (const auto& series : result.series) {
        double prev = 0.0;
        for (const auto& s : series) {
            integral +=
                s.powerWatts.value() * (s.time.value() - prev);
            prev = s.time.value();
        }
    }
    ASSERT_GT(integral, 0.0);
    EXPECT_NEAR(phases.totalEnergyJ() / integral, 1.0, 1e-9);

    // Self-profiling counters captured from the live stack.
    EXPECT_GT(result.counters.eventsPopped, 0u);
    EXPECT_GT(result.counters.flowsStarted, 0u);
    EXPECT_GT(result.counters.faultsInjected, 0u);

    // The structured run report parses and embeds all three parts.
    JsonValue report = parseJson(core::runReportJson(result));
    EXPECT_TRUE(report.at("summary").at("feasible").boolean);
    EXPECT_GT(report.at("metrics")
                  .at("counters")
                  .at("sim.events_popped")
                  .number,
              0.0);
    EXPECT_GT(
        report.at("phases").at("total_energy_j").number, 0.0);
}

TEST_F(ObsEndToEnd, QuiescentPausesLandInIdleNeverExposedComm)
{
    // Sync checkpoints stall the whole cluster between iterations:
    // those windows hold no kernels anywhere, so phase attribution
    // must classify every sample inside them as Idle — never
    // ExposedComm (no GPU is waiting on a communication kernel) and
    // never Bubble (no other device is busy either).
    auto cfg = config();
    cfg.measuredIterations = 3;
    cfg.resilience.enabled = true;
    cfg.resilience.checkpoint.intervalSec = 0.4;
    auto result = core::Experiment::run(cfg);
    ASSERT_TRUE(result.feasible);
    ASSERT_TRUE(result.goodputValid);
    ASSERT_TRUE(result.trace);

    std::vector<std::pair<double, double>> pauses;
    for (const auto& seg : result.goodput.timeline) {
        if (seg.bucket == resil::Bucket::Checkpoint)
            pauses.emplace_back(seg.startSec, seg.endSec);
    }
    ASSERT_GE(pauses.size(), 2u);

    // No kernel on any device overlaps a checkpoint pause.
    for (const auto& ev : result.trace->all()) {
        for (const auto& [lo, hi] : pauses) {
            EXPECT_FALSE(ev.startSec < hi - 1e-12 &&
                         ev.startSec + ev.durSec > lo + 1e-12)
                << ev.name << " overlaps pause [" << lo << ", " << hi
                << ")";
        }
    }

    // Every GPU spends at least the total pause time in Idle; the
    // pauses land in no other phase.
    double pause_total = 0.0;
    for (const auto& [lo, hi] : pauses)
        pause_total += hi - lo;
    obs::PhaseReport phases = core::phaseReport(result);
    for (const auto& gpu : phases.gpus) {
        double idle =
            gpu.phases[static_cast<std::size_t>(obs::Phase::Idle)]
                .seconds;
        EXPECT_GE(idle, pause_total - 1e-9)
            << "gpu " << gpu.gpu
            << " lost quiescent time to a non-idle phase";
    }
}

} // namespace
