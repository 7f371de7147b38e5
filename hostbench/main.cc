// hostbench: host time, memory and per-layer cost of the simulator on
// four fixed workloads. Normally started by run.py, which builds it and
// adds the set-up time; README.md documents the metrics and workloads.
//
//   hostbench --workload NAME --seed N --seconds S --trace 0|1
//             [--ref-dir DIR] [--out-dir DIR]
//   hostbench --workload NAME --setup-only      (set-up, then exit)
//   hostbench --workload NAME --write-reference (regenerate reference)
//   hostbench --self-test
//
// The last stdout line is one JSON object: correct, attempted, failed
// and the metrics of the mode (end-to-end untraced, per-layer traced).

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/cluster.hh"
#include "core/report.hh"
#include "hostbench.hh"
#include "sim/backend.hh"

namespace hostbench {

double
hostSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace hostbench

using namespace hostbench;

namespace {

/** Fewest timed passes (or traced/untraced pairs) per invocation. */
constexpr int kMinPasses = 3;

/**
 * The host's speed drifts by tens of percent within minutes, so
 * end-to-end times are stated at a reference speed: each is scaled by
 * kReferenceCalibrationSec over the calibration kernel's time measured
 * around it (about its time on the host the benchmark was sized on).
 */
constexpr double kReferenceCalibrationSec = 0.05;
constexpr double kCalibrationBlockSec = 0.15;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string refDir = "hostbench/reference";
    std::string outDir = ".bench_build/hostbench_reports";
    bool setupOnly = false;
    bool writeReference = false;
    bool selfTest = false;
};

[[noreturn]] void
usage(const std::string& problem)
{
    std::fprintf(stderr,
                 "hostbench: %s\n"
                 "usage: hostbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--ref-dir DIR] [--out-dir DIR]\n"
                 "                 [--setup-only | --write-reference]\n"
                 "       hostbench --self-test\n",
                 problem.c_str());
    std::exit(2);
}

bool
parseUint(const std::string& text, std::uint64_t* out)
{
    if (text.empty() || text.size() > 19 ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    *out = std::strtoull(text.c_str(), nullptr, 10);
    return true;
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (flag == "--write-reference") {
            a.writeReference = true;
            continue;
        }
        if (flag == "--self-test") {
            a.selfTest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            if (!parseUint(value, &a.seed))
                usage("bad --seed " + value);
        } else if (flag == "--seconds") {
            if (!parseUint(value, &n) || n < 1 || n > 3600)
                usage("bad --seconds " + value);
            a.seconds = static_cast<double>(n);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--ref-dir") {
            a.refDir = value;
        } else if (flag == "--out-dir") {
            a.outDir = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!a.selfTest) {
        const auto& names = workloadNames();
        if (std::find(names.begin(), names.end(), a.workload) == names.end())
            usage("unknown or missing --workload '" + a.workload + "'");
    }
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- passes -------------------------------------------------------------------

/** One run of every config of a workload. */
struct Pass
{
    std::vector<core::ExperimentResult> results;
    double wallSec = 0.0;
    BackendPhases phases;
    ReportCost reports;
    int reportFailures = 0; //!< configs whose reports were not written
    LayerTimes layers;      //!< traced passes only
};

std::string
reportStem(const Workload& w, std::size_t config)
{
    return w.name + "_c" + std::to_string(config);
}

/** Lower/execute/results through sim::makeBackend, each phase timed. */
core::ExperimentResult
runBackend(const core::ExperimentConfig& cfg, BackendPhases* phases)
{
    double t0 = hostSeconds();
    auto backend = sim::makeBackend(cfg.backend);
    backend->lower(cfg);
    double t1 = hostSeconds();
    backend->execute();
    double t2 = hostSeconds();
    core::ExperimentResult r = backend->results();
    double t3 = hostSeconds();
    phases->lower += t1 - t0;
    phases->execute += t2 - t1;
    phases->results += t3 - t2;
    return r;
}

void
passReports(const Workload& w, const std::string& out_dir, Pass* p)
{
    if (!w.writesReports)
        return;
    for (std::size_t i = 0; i < p->results.size(); ++i) {
        ReportCost c =
            writeReportsTimed(p->results[i], out_dir, reportStem(w, i));
        p->reports.writeSec += c.writeSec;
        p->reports.bytes += c.bytes;
        if (c.bytes == 0)
            ++p->reportFailures;
    }
}

Pass
untracedPass(const Workload& w, const std::string& out_dir)
{
    Pass p;
    double start = hostSeconds();
    for (const auto& cfg : w.configs)
        p.results.push_back(runBackend(cfg, &p.phases));
    passReports(w, out_dir, &p);
    p.wallSec = hostSeconds() - start;
    return p;
}

Pass
tracedPass(const Workload& w, const std::string& out_dir, ProbeSizes* sizes)
{
    Pass p;
    for (const auto& cfg : w.configs) {
        if (cfg.backend == sim::BackendKind::Des) {
            double window = 0.0;
            p.results.push_back(tracedDes(cfg, &p.layers, sizes, &window));
            p.wallSec += window;
        } else {
            double t0 = hostSeconds();
            p.results.push_back(runBackend(cfg, &p.phases));
            p.wallSec += hostSeconds() - t0;
        }
    }
    passReports(w, out_dir, &p);
    p.wallSec += p.reports.writeSec;
    return p;
}

/** Reference check tally across every pass of an invocation. */
struct Check
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double maxDeviation = 0.0;
};

void
checkPass(const Workload& w, const Pass& p, const Reference& ref, Check* c)
{
    for (std::size_t i = 0; i < p.results.size(); ++i) {
        ++c->attempted;
        auto it = ref.find(caseKey(w, i));
        double dev = it == ref.end()
                         ? std::numeric_limits<double>::infinity()
                         : maxDeviation(checkedOutputs(p.results[i]),
                                        it->second);
        c->maxDeviation = std::max(c->maxDeviation, dev);
        if (!(dev <= kTolerance))
            ++c->failed;
    }
    c->failed += static_cast<std::uint64_t>(p.reportFailures);
}

bool
bitwiseEqual(const Pass& a, const Pass& b)
{
    if (a.results.size() != b.results.size())
        return false;
    for (std::size_t i = 0; i < a.results.size(); ++i)
        if (bitwiseOutputs(a.results[i]) != bitwiseOutputs(b.results[i]))
            return false;
    return true;
}

// ---- output -------------------------------------------------------------------

class JsonMetrics
{
  public:
    void
    add(const char* name, double value, const char* unit)
    {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                                        "\"unit\": \"%s\"}",
                      body.empty() ? "" : ", ", name,
                      std::isfinite(value)
                          ? value
                          : std::numeric_limits<double>::max(),
                      unit);
        body += buf;
    }

    void
    print(const Check& c, bool correct) const
    {
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": {%s}}\n",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(c.attempted),
                    static_cast<unsigned long long>(c.failed),
                    body.c_str());
    }

  private:
    std::string body;
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
printCheck(const Check& c)
{
    std::printf("check: sim_max_rel_err %.6g, fail_ratio %llu/%llu "
                "(tolerance %.0f%% per output, reference committed from "
                "the seed commit)\n",
                c.maxDeviation, static_cast<unsigned long long>(c.failed),
                static_cast<unsigned long long>(c.attempted),
                kTolerance * 100.0);
}

/** Seconds per run of the calibration kernel, averaged over as many runs
 *  as fill kCalibrationBlockSec. */
double
calibrationBlock()
{
    double start = hostSeconds(), total = 0.0;
    int runs = 0;
    do {
        total += calibrationSeconds();
        ++runs;
    } while (hostSeconds() - start < kCalibrationBlockSec);
    return total / runs;
}

/**
 * Times passes until --seconds have gone. Each pass's host seconds are
 * scaled to the reference speed by the calibration blocks run right
 * before and after it; @p calibration is the block that ended set-up.
 */
int
runUntraced(const Workload& w, const Args& args, const Reference& ref,
            Check check, double calibration)
{
    std::vector<double> host, scaled;
    double before = calibration;
    double start = hostSeconds();
    while (static_cast<int>(host.size()) < kMinPasses ||
           hostSeconds() - start < args.seconds) {
        Pass p = untracedPass(w, args.outDir);
        double after = calibrationBlock();
        checkPass(w, p, ref, &check);
        host.push_back(p.wallSec);
        scaled.push_back(p.wallSec * kReferenceCalibrationSec /
                         (0.5 * (before + after)));
        before = after;
    }
    std::printf("passes: %zu, host seconds median %.4f, at reference "
                "speed median %.4f; host seconds each:",
                host.size(), median(host), median(scaled));
    for (double s : host)
        std::printf(" %.4f", s);
    std::printf("\n");
    printCheck(check);
    JsonMetrics m;
    m.add("wall_s", median(scaled), "s");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    m.print(check, check.failed == 0);
    return 0;
}

int
runTraced(const Workload& w, const Args& args, const Reference& ref,
          Check check)
{
    std::vector<double> u_wall, t_wall, lower, execute, results, tick, loop,
        build, in_pass_reports;
    ProbeSizes sizes;
    Pass last;
    bool bitwise = true;
    double start = hostSeconds();
    for (int i = 0; i < kMinPasses || hostSeconds() - start < args.seconds;
         ++i) {
        // Alternate which side runs first so drift hits both equally.
        Pass u, t;
        if (i % 2 == 0) {
            u = untracedPass(w, args.outDir);
            t = tracedPass(w, args.outDir, &sizes);
        } else {
            t = tracedPass(w, args.outDir, &sizes);
            u = untracedPass(w, args.outDir);
        }
        checkPass(w, u, ref, &check);
        checkPass(w, t, ref, &check);
        bitwise = bitwise && bitwiseEqual(u, t);
        u_wall.push_back(u.wallSec);
        t_wall.push_back(t.wallSec);
        lower.push_back(u.phases.lower);
        execute.push_back(u.phases.execute);
        results.push_back(u.phases.results);
        tick.push_back(t.layers.tickSec);
        loop.push_back(t.layers.eventLoopSec);
        build.push_back(t.layers.programBuildSec);
        in_pass_reports.push_back(t.reports.writeSec);
        last = std::move(t);
    }

    // Report-layer calls on the pass's results, outside any timed pass.
    double unified = 0.0, phases = 0.0, write = median(in_pass_reports);
    std::uint64_t report_bytes = last.reports.bytes;
    for (std::size_t i = 0; i < last.results.size(); ++i) {
        const auto& r = last.results[i];
        double t0 = hostSeconds();
        std::string json = core::unifiedTraceJson(r);
        double t1 = hostSeconds();
        obs::PhaseReport pr = core::phaseReport(r);
        double t2 = hostSeconds();
        unified += t1 - t0;
        phases += t2 - t1;
        if (!w.writesReports) {
            ReportCost c =
                writeReportsTimed(r, args.outDir, reportStem(w, i));
            write += c.writeSec;
            report_bytes += c.bytes;
        }
    }
    ProbeResults probe = runProbes(sizes);

    const LayerTimes& lt = last.layers;
    double wall = median(t_wall), tick_s = median(tick),
           loop_s = median(loop);
    double reports_in_pass = w.writesReports ? median(in_pass_reports) : 0.0;
    struct Share
    {
        const char* layer;
        double seconds;
    } shares[] = {
        {"hw: Platform::tick (thermal, DVFS, per-GPU stats)", tick_s},
        {"sim+net+coll+runtime: TrainingEngine::run minus ticks",
         loop_s - tick_s},
        {"core+scale: lowering, stack build, aggregation, analytical "
         "backend",
         wall - loop_s - reports_in_pass},
        {"obs/telemetry/resil reports: core::writeReports", reports_in_pass},
    };
    std::printf("traced pass: %.4f s median over %zu passes; layer shares "
                "(timed from outside):\n",
                wall, t_wall.size());
    const Share* largest = &shares[0];
    for (const auto& s : shares) {
        std::printf("  %5.1f%%  %8.4f s  %s\n", 100.0 * s.seconds / wall,
                    s.seconds, s.layer);
        if (s.seconds > largest->seconds)
            largest = &s;
    }
    std::printf("largest-share layer: %s (%.1f%%)\n", largest->layer,
                100.0 * largest->seconds / wall);
    std::printf("isolated probes at this workload's sizes (per-call "
                "estimates, not shares): dispatch %.1f ns/event at %zu "
                "pending; full re-allocation %.2f us at %zu flows; thermal "
                "step %.2f us at %d nodes\n",
                probe.dispatchNsPerEvent, sizes.peakPendingEvents,
                probe.recomputeUs, sizes.peakActiveFlows,
                probe.thermalStepUs, sizes.physicalNodes);
    std::printf("traced run bitwise equal to untraced run: %s\n",
                bitwise ? "yes" : "NO");
    printCheck(check);

    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    double fast = static_cast<double>(lt.fastJoins + lt.fastCompletions);
    JsonMetrics m;
    m.add("hw.ticks", static_cast<double>(lt.ticks), "count");
    m.add("hw.tick_s", tick_s, "s");
    m.add("hw.tick_share", ratio(tick_s, loop_s), "ratio");
    m.add("hw.thermal_step_us", probe.thermalStepUs, "us");
    m.add("sim.events", static_cast<double>(lt.events), "count");
    m.add("sim.event_loop_s", loop_s, "s");
    m.add("sim.allocs_per_event",
          ratio(static_cast<double>(lt.loopAllocs),
                static_cast<double>(lt.events)),
          "allocs/event");
    m.add("sim.dispatch_ns_per_event", probe.dispatchNsPerEvent, "ns");
    m.add("net.flows", static_cast<double>(lt.flows), "count");
    m.add("net.full_recomputes", static_cast<double>(lt.fullRecomputes),
          "count");
    m.add("net.fast_path_ratio",
          ratio(fast, fast + static_cast<double>(lt.fullRecomputes)),
          "ratio");
    m.add("net.recompute_us", probe.recomputeUs, "us");
    m.add("runtime.program_build_s", median(build), "s");
    m.add("runtime.loop_other_s", loop_s - tick_s, "s");
    m.add("core.lower_s", median(lower), "s");
    m.add("core.execute_s", median(execute), "s");
    m.add("core.results_s", median(results), "s");
    m.add("core.logical_world", static_cast<double>(lt.logicalWorld),
          "count");
    m.add("core.physical_world", static_cast<double>(lt.physicalWorld),
          "count");
    m.add("core.write_reports_s", write, "s");
    m.add("core.unified_trace_s", unified, "s");
    m.add("core.phase_report_s", phases, "s");
    m.add("core.report_bytes", static_cast<double>(report_bytes), "bytes");
    m.add("telemetry.samples", static_cast<double>(lt.samples), "count");
    m.add("telemetry.trace_spans", static_cast<double>(lt.traceSpans),
          "count");
    m.add("resil.failures_hit", static_cast<double>(lt.failuresHit),
          "count");
    m.add("trace.overhead_ratio", wall / median(u_wall) - 1.0, "ratio");
    m.add("check.sim_max_rel_err", check.maxDeviation, "ratio");
    m.print(check, check.failed == 0 && bitwise);
    return 0;
}

/** Simulated run length under @p failure_seed's schedule. The passive
 *  observers are switched off: they never change the schedule. */
double
simulatedRunSeconds(const std::string& name, std::uint64_t failure_seed)
{
    auto cfg = makeWorkload(name, failure_seed).configs.at(0);
    cfg.enableSampler = cfg.enableTrace = cfg.enableCriticalPath = false;
    auto r = core::Experiment::run(cfg);
    return r.iterationSpans.empty() ? 0.0 : r.iterationSpans.back().endSec;
}

/** The first kPoolSize failure seeds whose simulated run length lies
 *  within kPoolBand of the median over seeds [0, kPoolSample). */
std::vector<std::uint64_t>
screenFailureSeeds(const std::string& name)
{
    std::vector<double> lengths;
    for (std::uint64_t s = 0; s < kPoolSample; ++s)
        lengths.push_back(simulatedRunSeconds(name, s));
    const double mid = median(lengths);
    std::vector<std::uint64_t> pool;
    for (std::uint64_t s = 0; pool.size() < kPoolSize; ++s) {
        CHARLLM_CHECK(s < 64 * kPoolSample, "too few failure seeds near "
                                            "the median run length");
        double len = s < kPoolSample ? lengths[s]
                                     : simulatedRunSeconds(name, s);
        if (std::fabs(len / mid - 1.0) <= kPoolBand)
            pool.push_back(s);
    }
    std::printf("failure-seed pool: %zu seeds within %.0f%% of the median "
                "simulated run length %.3f s\n",
                pool.size(), kPoolBand * 100.0, mid);
    return pool;
}

int
writeReference(const Args& args)
{
    Workload w = makeWorkload(args.workload, 0);
    std::string text = "# hostbench reference outputs of " + w.name +
                       ": <case> <output> <value>\n";
    std::vector<std::uint64_t> seeds = {0};
    if (w.seeded)
        seeds = screenFailureSeeds(w.name);
    for (std::uint64_t s : seeds) {
        Workload ws = makeWorkload(args.workload, s);
        Pass p = untracedPass(ws, args.outDir);
        for (std::size_t i = 0; i < p.results.size(); ++i)
            formatReference(caseKey(ws, i), checkedOutputs(p.results[i]),
                            &text);
    }
    std::string path = args.refDir + "/" + w.name + ".txt";
    std::ofstream out(path, std::ios::binary);
    if (!(out && (out << text))) {
        std::fprintf(stderr, "hostbench: cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return 0;
}

// ---- self-test ----------------------------------------------------------------

int failures = 0;

void
expect(bool ok, const char* what)
{
    std::printf("  %s  %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok)
        ++failures;
}

int
selfTest(const Args& args)
{
    std::printf("hostbench self-test\n");
    Outputs ref = {{"feasible", 1.0}, {"iteration_s", 2.0},
                   {"cause.compute", 0.5}};
    expect(maxDeviation(ref, ref) == 0.0, "identical outputs deviate by 0");
    expect(std::fabs(maxDeviation({{"feasible", 1.0},
                                   {"iteration_s", 2.1},
                                   {"cause.compute", 0.5}},
                                  ref) -
                     0.05) < 1e-12,
           "relative error of a value");
    expect(std::fabs(maxDeviation({{"feasible", 1.0},
                                   {"iteration_s", 2.0},
                                   {"cause.compute", 0.52}},
                                  ref) -
                     0.02) < 1e-12,
           "absolute share difference of the cause split");
    expect(std::isinf(maxDeviation({{"feasible", 0.0}}, ref)),
           "infeasible where the reference was feasible fails");

    // A small resilient, observed config and a collapsed one: the traced
    // stack must reproduce the backend bit for bit, and the reference
    // file format must round-trip exactly.
    auto observed = makeWorkload("observed_recovery", 3);
    observed.configs[0].measuredIterations = 6;
    Workload collapsed;
    collapsed.name = "collapsed";
    {
        auto cfg = makeWorkload("datacenter_scale", 0).configs[1];
        cfg.cluster = core::h200Cluster(8);
        cfg.par = parallel::ParallelConfig::forWorld(64, 8, 4);
        cfg.train.globalBatchSize = 8;
        collapsed.configs.push_back(cfg);
    }
    for (const Workload* w : {&observed, &collapsed}) {
        ProbeSizes sizes;
        Pass u = untracedPass(*w, args.outDir);
        Pass t = tracedPass(*w, args.outDir, &sizes);
        expect(bitwiseEqual(u, t), ("traced == untraced on " +
                                    u.results[0].label)
                                       .c_str());
        expect(t.layers.ticks > 0 && t.layers.events > t.layers.ticks,
               "traced pass counts ticks and events");
        std::string text;
        formatReference("c0", checkedOutputs(u.results[0]), &text);
        std::string path = args.outDir + "/selftest_reference.txt";
        std::ofstream(path) << text;
        Reference parsed;
        expect(loadReference(path, &parsed) &&
                   maxDeviation(checkedOutputs(u.results[0]),
                                parsed["c0"]) == 0.0 &&
                   parsed["c0"].size() ==
                       checkedOutputs(u.results[0]).size(),
               "reference file round-trips exactly");
        ProbeResults probe = runProbes(sizes);
        expect(probe.dispatchNsPerEvent > 0.0 && probe.recomputeUs > 0.0 &&
                   probe.thermalStepUs > 0.0,
               "probes report positive per-call times");
    }

    // Every committed reference covers every case it will be asked for.
    for (const auto& name : workloadNames()) {
        Reference r;
        bool ok = loadReference(args.refDir + "/" + name + ".txt", &r);
        Workload w = makeWorkload(name, 0);
        std::vector<std::uint64_t> seeds = {0};
        if (w.seeded) {
            seeds = failureSeedPool(r);
            ok = ok && seeds.size() == kPoolSize;
        }
        for (std::uint64_t s : seeds) {
            Workload ws = makeWorkload(name, s);
            for (std::size_t i = 0; i < ws.configs.size(); ++i)
                ok = ok && r.count(caseKey(ws, i)) == 1;
        }
        expect(ok, ("reference complete for " + name).c_str());
    }
    std::printf("%s\n", failures ? "self-test FAILED" : "self-test ok");
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char** argv)
{
    // Pin glibc's mmap threshold at its initial value. Left dynamic, it
    // rises after the first large free, and peak RSS then jumps by 10%+
    // between failure seeds with near-identical live memory.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    Args args = parseArgs(argc, argv);
    std::error_code ec;
    std::filesystem::create_directories(args.outDir, ec);
    if (args.selfTest)
        return selfTest(args);
    if (args.writeReference)
        return writeReference(args);

    Reference ref;
    std::string ref_path = args.refDir + "/" + args.workload + ".txt";
    if (!loadReference(ref_path, &ref)) {
        std::fprintf(stderr, "hostbench: cannot read reference %s\n",
                     ref_path.c_str());
        return 2;
    }
    std::vector<std::uint64_t> pool = failureSeedPool(ref);
    Workload w = makeWorkload(
        args.workload, pool.empty() ? 0 : pool[args.seed % pool.size()]);
    std::printf("workload %s: %zu config(s), one serial pass each\n",
                w.name.c_str(), w.configs.size());
    if (w.seeded)
        std::printf("seed %llu: failure seed %llu (pool entry seed mod "
                    "%zu)\n",
                    static_cast<unsigned long long>(args.seed),
                    static_cast<unsigned long long>(w.failureSeed),
                    pool.size());
    else
        std::printf("seed %llu: ignored; %s is seed-free and deterministic\n",
                    static_cast<unsigned long long>(args.seed),
                    w.name.c_str());

    // Set-up ends with one untimed warm-up pass: heap growth and cold
    // caches are paid here, and show in setup_s rather than wall_s.
    Check check;
    checkPass(w, untracedPass(w, args.outDir), ref, &check);
    std::printf("hostbench-ready-ns %lld\n",
                static_cast<long long>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count()));
    std::fflush(stdout);
    double calibration = calibrationBlock();
    std::printf("hostbench-speed %.17g\n",
                kReferenceCalibrationSec / calibration);
    if (args.setupOnly)
        return 0; // the timed run reports the check
    return args.trace ? runTraced(w, args, ref, check)
                      : runUntraced(w, args, ref, check, calibration);
}
