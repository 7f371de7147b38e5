#include "bench_util.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/strings.hh"
#include "core/report.hh"
#include "core/sweep_runner.hh"

namespace charllm {
namespace benchutil {

namespace {

/** Say whether @p what was written to @p path (stderr on failure). */
void
announce(const char* what, const std::string& path, bool ok)
{
    if (ok)
        std::printf("wrote %s: %s\n", what, path.c_str());
    else
        std::fprintf(stderr, "failed to write %s: %s\n", what,
                     path.c_str());
}

/** Write @p text to @p path and say so. */
void
writeArtifact(const char* what, const std::string& path,
              const std::string& text)
{
    std::ofstream out(path, std::ios::binary);
    announce(what, path, out && (out << text));
}

} // namespace

void
banner(const std::string& exp_id, const std::string& what)
{
    std::printf("=======================================================\n");
    std::printf("%s — %s\n", exp_id.c_str(), what.c_str());
    std::printf("(CharLLM-PPT reproduction; shapes, not absolute values)\n");
    std::printf("=======================================================\n\n");
}

core::ExperimentConfig
sweepConfig(const core::ClusterSpec& cluster,
            const model::TransformerConfig& m,
            const parallel::ParallelConfig& par)
{
    core::ExperimentConfig cfg;
    cfg.cluster = cluster;
    cfg.model = m;
    cfg.par = par;
    cfg.warmupIterations = 1;
    cfg.measuredIterations = 1;
    return cfg;
}

std::vector<SweepRow>
runSweep(std::vector<core::ExperimentConfig> configs,
         const SweepFlags& flags)
{
    bool invalid = false;
    for (auto& cfg : configs) {
        cfg.backend = flags.backend;
        for (const std::string& problem : core::validate(cfg)) {
            std::fprintf(stderr, "%s: %s\n", cfg.label().c_str(),
                         problem.c_str());
            invalid = true;
        }
    }
    if (invalid)
        std::exit(2);

    bool tracing = !flags.tracePath.empty() && !configs.empty() &&
                   flags.backend == sim::BackendKind::Des;
    if (tracing) {
        configs.front().enableTrace = true;
        configs.front().enableSampler = true;
    }
    if (!flags.tracePath.empty() && !tracing)
        std::fprintf(stderr, "--trace needs the DES backend; no trace "
                             "will be written\n");
    bool critpath = !flags.critPathPath.empty() && !configs.empty() &&
                    flags.backend == sim::BackendKind::Des;
    if (critpath)
        configs.front().enableCriticalPath = true;
    if (!flags.critPathPath.empty() && !critpath)
        std::fprintf(stderr,
                     "--critical-path needs the DES backend (the "
                     "analytical backend has no event timeline to "
                     "trace); no report will be written\n");

    obs::MetricsRegistry registry;
    core::SweepRunner runner(flags.threads);
    std::vector<core::ExperimentResult> results = runner.run(
        configs, flags.metricsPath.empty() ? nullptr : &registry);

    if (tracing)
        announce("unified trace", flags.tracePath,
                 core::writeUnifiedTrace(results.front(),
                                         flags.tracePath));
    if (critpath)
        writeCriticalPath(flags.critPathPath, results.front());
    if (!flags.metricsPath.empty())
        writeArtifact("metrics", flags.metricsPath, registry.toJson());

    std::vector<SweepRow> rows;
    rows.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto& train = configs[i].train;
        std::string variant = configs[i].par.label();
        if (train.actRecompute)
            variant += "+act";
        if (train.ccOverlap)
            variant += "+cc";
        if (train.microbatchSize != 1)
            variant += " mb" + std::to_string(train.microbatchSize);
        rows.push_back({configs[i].model.name, std::move(variant),
                        std::move(results[i])});
    }
    return rows;
}

void
writeCriticalPath(const std::string& path,
                  const core::ExperimentResult& r)
{
    if (r.critPath)
        writeArtifact("critical-path report", path,
                      "{\"label\":\"" + jsonEscape(r.label) +
                          "\",\"critical_path\":" +
                          r.critPath->toJson() + "}");
    else
        std::fprintf(stderr,
                     "failed to write critical-path report: %s\n",
                     path.c_str());
}

namespace {

[[noreturn]] void
printUsage(const char* prog, const std::vector<ExtraFlag>& extra,
           int exit_code)
{
    std::FILE* out = exit_code == 0 ? stdout : stderr;
    std::fprintf(out, "usage: %s [flags]\n", prog);
    std::fprintf(out, "  --threads=N, -jN  worker threads "
                      "(0 = one per core; default 0)\n");
    std::fprintf(out, "  --trace=FILE      write a unified Perfetto "
                      "trace of the first config\n");
    std::fprintf(out, "  --metrics=FILE    write the self-profiling "
                      "metrics registry dump\n");
    std::fprintf(out, "  --critical-path=FILE  write the causal "
                      "critical-path report of the first config\n");
    std::fprintf(out, "  --backend=KIND    fidelity backend: des "
                      "(default) or analytical\n");
    for (const auto& f : extra)
        std::fprintf(out, "  %sVALUE%*s%s\n", f.prefix.c_str(),
                     static_cast<int>(
                         f.prefix.size() + 5 < 20
                             ? 20 - f.prefix.size() - 5
                             : 2),
                     "", f.help.c_str());
    std::fprintf(out, "  --help, -h        this message\n");
    std::exit(exit_code);
}

} // namespace

SweepFlags
sweepFlags(int argc, char** argv, const std::vector<ExtraFlag>& extra)
{
    SweepFlags flags;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            printUsage(argv[0], extra, 0);
        std::string* path = nullptr;
        for (auto [prefix, dst] :
             {std::pair{"--trace=", &flags.tracePath},
              std::pair{"--metrics=", &flags.metricsPath},
              std::pair{"--critical-path=", &flags.critPathPath}}) {
            if (arg.rfind(prefix, 0) == 0) {
                path = dst;
                *path = arg.substr(std::strlen(prefix));
            }
        }
        if (path != nullptr) {
            if (path->empty()) {
                std::fprintf(stderr, "empty path in '%s'\n",
                             arg.c_str());
                std::exit(2);
            }
            continue;
        }
        if (arg.rfind("--backend=", 0) == 0) {
            std::string value = arg.substr(10);
            if (!sim::parseBackendKind(value, &flags.backend)) {
                std::fprintf(stderr,
                             "unknown backend '%s' (want "
                             "--backend=des|analytical)\n",
                             value.c_str());
                std::exit(2);
            }
            continue;
        }
        // --threads=N, or -jN with a nonempty N.
        std::size_t skip = arg.rfind("--threads=", 0) == 0 ? 10
                           : arg.rfind("-j", 0) == 0 && arg.size() > 2
                               ? 2
                               : 0;
        if (skip > 0) {
            std::string value = arg.substr(skip);
            char* end = nullptr;
            errno = 0;
            long parsed = std::strtol(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0' || parsed < 0 ||
                errno == ERANGE || parsed > INT_MAX) {
                std::fprintf(stderr,
                             "invalid thread count '%s' (want "
                             "--threads=N, N >= 0; 0 = one per "
                             "core)\n",
                             value.c_str());
                std::exit(2);
            }
            flags.threads = static_cast<int>(parsed);
            continue;
        }
        bool matched = false;
        for (const auto& f : extra) {
            if (arg.rfind(f.prefix, 0) != 0)
                continue;
            matched = true;
            if (!f.handler(arg.substr(f.prefix.size()))) {
                std::fprintf(stderr,
                             "invalid value in '%s' (%s)\n",
                             arg.c_str(), f.help.c_str());
                std::exit(2);
            }
            break;
        }
        if (!matched) {
            std::fprintf(stderr,
                         "unknown argument '%s' (try --help)\n",
                         arg.c_str());
            std::exit(2);
        }
    }
    return flags;
}

std::map<std::string, double>
bestEfficiencyPerModel(const std::vector<SweepRow>& rows)
{
    std::map<std::string, double> best;
    for (const auto& row : rows) {
        if (!row.result.feasible)
            continue;
        double& b = best[row.model];
        b = std::max(b, row.result.tokensPerJoule);
    }
    return best;
}

void
printSystemMetrics(const std::vector<SweepRow>& rows)
{
    auto best = bestEfficiencyPerModel(rows);
    TextTable t({"model", "config", "eff(norm)", "tok/s", "avgP(W)",
                 "pkP(W)", "avgT(C)", "pkT(C)", "clk(GHz)",
                 "throttle"});
    std::string last_model;
    for (const auto& row : rows) {
        if (!last_model.empty() && row.model != last_model)
            t.addSeparator();
        last_model = row.model;
        const auto& r = row.result;
        if (!r.feasible) {
            t.addRow({row.model, row.variant, "OOM", "-", "-", "-",
                      "-", "-", "-", "-"});
            continue;
        }
        t.addRow({row.model, row.variant,
                  formatFixed(r.tokensPerJoule / best[row.model], 3),
                  formatFixed(r.tokensPerSecond, 0),
                  formatFixed(r.avgPowerW, 0),
                  formatFixed(r.peakPowerW, 0),
                  formatFixed(r.avgTempC, 1),
                  formatFixed(r.peakTempC, 1),
                  formatFixed(r.avgClockGhz, 2),
                  formatFixed(100.0 * r.throttleRatio, 1) + "%"});
    }
    t.print();
}

void
printBreakdown(const std::string& title,
               const std::vector<SweepRow>& rows)
{
    std::printf("%s\n", title.c_str());
    std::vector<std::string> cols = {"model", "config", "total"};
    for (std::size_t i = 0; i < hw::kNumKernelClasses; ++i)
        cols.push_back(
            hw::kernelClassName(static_cast<hw::KernelClass>(i)));
    TextTable t(cols);
    for (const auto& row : rows) {
        if (!row.result.feasible) {
            std::vector<std::string> cells = {row.model, row.variant,
                                              "OOM"};
            cells.resize(cols.size(), "-");
            t.addRow(cells);
            continue;
        }
        const auto& b = row.result.meanBreakdown;
        std::vector<std::string> cells = {row.model, row.variant,
                                          fmtSec(b.total())};
        for (std::size_t i = 0; i < hw::kNumKernelClasses; ++i) {
            double s = b.seconds[i];
            cells.push_back(
                s > 0.0 ? strprintf("%.0f%%", 100.0 * s / b.total())
                        : "-");
        }
        t.addRow(cells);
    }
    t.print();
}

std::string
fmtSec(double s)
{
    return formatSeconds(s);
}

long
peakRssKb()
{
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return ru.ru_maxrss;
}

} // namespace benchutil
} // namespace charllm
