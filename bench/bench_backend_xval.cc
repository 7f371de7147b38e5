/**
 * @file
 * DES <-> analytical cross-validation harness. Runs one preset per
 * figure family on both fidelity backends, reports per-metric relative
 * error (iteration time, energy, tokens/s) from core::compareResults
 * against the preset's row of core::toleranceTable(), and measures the
 * analytical speedup. Exits nonzero when any preset exceeds its
 * tolerance, so CI can gate backend drift.
 *
 * With --out=FILE a JSON artifact is written (per-preset errors,
 * tolerances, wall times, speedup). CI's backend-xval job reads its
 * `speedup` and gates the >=100x floor there, since a host-timed
 * ratio is no part of this bench's exit status.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/strings.hh"
#include "common/table.hh"
#include "core/compare.hh"
#include "core/sweep_runner.hh"

using namespace charllm;
using benchutil::sweepConfig;
using core::Metric;

namespace {

struct Preset
{
    std::string name; //!< figure family this preset stands in for
    std::vector<core::ExperimentConfig> configs;
    const core::ToleranceRow* tol = nullptr; //!< backend-xval/<name>
};

/** A preset's worst relative error per metric, and every breach. */
struct ErrorSummary
{
    core::Comparison worst;
    int compared = 0; //!< configs feasible on both backends
};

/**
 * One preset per figure family of the paper reproduction, sized so the
 * DES side stays CI-friendly. Each preset's tolerance is the
 * core::toleranceTable() row "backend-xval/<preset>" (DESIGN.md §9).
 */
std::vector<Preset>
presets()
{
    std::vector<Preset> out;

    { // Figure 9 family: H200 optimization techniques (act / cc).
        Preset p;
        p.name = "fig09-optimizations";
        auto cluster = core::h200Cluster();
        auto m = model::gpt3_175b();
        auto base = sweepConfig(
            cluster, m, parallel::ParallelConfig::forWorld(32, 4, 8));
        auto act = base;
        act.train.actRecompute = true;
        auto cc = base;
        cc.train.ccOverlap = true;
        auto wide = sweepConfig(
            cluster, m, parallel::ParallelConfig::forWorld(32, 8, 4));
        p.configs = {base, act, cc, wide};
        out.push_back(std::move(p));
    }

    { // Figure 13 family: microbatch scaling (pipeline bubbles).
        Preset p;
        p.name = "fig13-microbatch";
        auto cluster = core::h200Cluster();
        auto m = model::llama3_70b();
        for (int mb : {1, 2, 4}) {
            auto cfg = sweepConfig(
                cluster, m,
                parallel::ParallelConfig::forWorld(32, 4, 8));
            cfg.train.actRecompute = true;
            cfg.train.microbatchSize = mb;
            p.configs.push_back(cfg);
        }
        out.push_back(std::move(p));
    }

    { // Table 2 / Figure 9 MoE family: expert parallelism (AllToAll).
        Preset p;
        p.name = "table2-moe";
        auto cluster = core::h200Cluster();
        auto m = model::mixtral_8x7b();
        for (const auto& par : core::paperConfigs(m, cluster)) {
            if (par.ep > 1 && par.tp <= 2 && p.configs.size() < 3)
                p.configs.push_back(sweepConfig(cluster, m, par));
        }
        out.push_back(std::move(p));
    }

    { // Figure 10/14 family: MI250 chiplet cluster (XGMI links).
        Preset p;
        p.name = "fig10-mi250";
        auto cluster = core::mi250Cluster();
        auto m = model::llama3_30b();
        auto a = sweepConfig(
            cluster, m, parallel::ParallelConfig::forWorld(32, 4, 8));
        a.train.actRecompute = true;
        auto b = sweepConfig(
            cluster, m, parallel::ParallelConfig::forWorld(32, 8, 4));
        b.train.actRecompute = true;
        p.configs = {a, b};
        out.push_back(std::move(p));
    }

    { // Figure 23 family: distributed inference.
        Preset p;
        p.name = "fig23-inference";
        auto cluster = core::h200Cluster();
        auto m = model::gpt3_175b();
        for (int mb : {1, 4}) {
            auto cfg = sweepConfig(
                cluster, m,
                parallel::ParallelConfig::forWorld(32, 4, 8));
            cfg.train.inference = true;
            cfg.train.microbatchSize = mb;
            p.configs.push_back(cfg);
        }
        out.push_back(std::move(p));
    }

    { // Figure 2 family: scale-out data parallelism across nodes.
        Preset p;
        p.name = "fig02-scaleout";
        auto cluster = core::h100Cluster();
        auto m = model::gpt3_30b();
        auto cfg = sweepConfig(
            cluster, m, parallel::ParallelConfig::forWorld(64, 2, 4));
        auto zero = cfg;
        zero.train.zero1 = true;
        p.configs = {cfg, zero};
        out.push_back(std::move(p));
    }

    // The paper's measurement protocol: several measured iterations
    // after warmup. DES cost scales with the iteration count; the
    // analytical backend prices repeated iterations from its cached
    // per-program walks, which is exactly the regime the >=100x
    // speedup target describes.
    for (auto& p : out) {
        p.tol = &core::tolerance("backend-xval/" + p.name);
        for (auto& cfg : p.configs) {
            cfg.warmupIterations = 1;
            cfg.measuredIterations = 4;
        }
    }

    return out;
}

// Not benchutil::runSweep: each backend's sweep is timed on its own.
std::vector<core::ExperimentResult>
runAll(std::vector<core::ExperimentConfig> configs,
       sim::BackendKind backend, int threads, double* wall_seconds)
{
    for (auto& cfg : configs)
        cfg.backend = backend;
    auto start = std::chrono::steady_clock::now();
    core::SweepRunner runner(threads);
    auto results = runner.run(configs);
    *wall_seconds +=
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    return results;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out_path;
    std::vector<benchutil::ExtraFlag> extra = {
        {"--out=", "write the JSON cross-validation artifact here",
         [&](const std::string& v) {
             out_path = v;
             return !v.empty();
         }},
    };
    auto flags = benchutil::sweepFlags(argc, argv, extra);

    benchutil::banner("Backend cross-validation",
                      "DES vs analytical on one preset per figure "
                      "family");

    double des_wall = 0.0;
    double ana_wall = 0.0;
    std::vector<Preset> all = presets();
    std::vector<ErrorSummary> errors(all.size());
    bool tolerance_ok = true;

    for (std::size_t i = 0; i < all.size(); ++i) {
        const auto& p = all[i];
        auto des = runAll(p.configs, sim::BackendKind::Des,
                          flags.threads, &des_wall);
        auto ana = runAll(p.configs, sim::BackendKind::Analytical,
                          flags.threads, &ana_wall);
        ErrorSummary& e = errors[i];
        for (std::size_t c = 0; c < p.configs.size(); ++c) {
            auto cmp = core::compareResults(ana[c], des[c], *p.tol);
            for (const std::string& breach : cmp.breaches)
                e.worst.breaches.push_back(des[c].label + ": " + breach);
            if (!des[c].feasible || !ana[c].feasible)
                continue;
            ++e.compared;
            for (std::size_t m = 0; m < core::kNumMetrics; ++m)
                e.worst.error[m] = std::max(e.worst.error[m], cmp.error[m]);
        }
        if (e.compared == 0)
            e.worst.breaches.push_back("no feasible configs compared");
        for (const std::string& breach : e.worst.breaches)
            std::fprintf(stderr, "%s: %s\n", p.name.c_str(), breach.c_str());
        tolerance_ok = tolerance_ok && e.worst.ok();
    }

    TextTable t({"preset", "configs", "iter-time err", "energy err",
                 "tok/s err", "tolerance", "status"});
    for (std::size_t i = 0; i < all.size(); ++i) {
        const auto& p = all[i];
        const auto& e = errors[i].worst;
        t.addRow({p.name, std::to_string(errors[i].compared),
                  strprintf("%.1f%%", 100.0 * e[Metric::IterationTime]),
                  strprintf("%.1f%%", 100.0 * e[Metric::Energy]),
                  strprintf("%.1f%%", 100.0 * e[Metric::TokensPerSecond]),
                  strprintf("%.0f%%",
                            100.0 * (*p.tol)[Metric::IterationTime]),
                  e.ok() ? "OK" : "FAIL"});
    }
    t.print();

    double speedup = ana_wall > 0.0 ? des_wall / ana_wall : 0.0;
    std::printf("\nDES wall: %.3f s   analytical wall: %.3f s   "
                "speedup: %.0fx\n",
                des_wall, ana_wall, speedup);
    if (speedup < 100.0)
        std::printf("note: speedup below the 100x target "
                    "(CI's backend-xval job gates the floor)\n");

    if (!out_path.empty()) {
        std::string json = "{\n  \"presets\": {\n";
        for (std::size_t i = 0; i < all.size(); ++i) {
            const auto& p = all[i];
            const auto& e = errors[i].worst;
            json += strprintf(
                "    \"%s\": {\"configs\": %d, "
                "\"iter_time_err\": %.6f, \"energy_err\": %.6f, "
                "\"tokens_per_sec_err\": %.6f, \"tolerance\": %.4f}%s"
                "\n",
                p.name.c_str(), errors[i].compared, e[Metric::IterationTime],
                e[Metric::Energy], e[Metric::TokensPerSecond],
                (*p.tol)[Metric::IterationTime],
                i + 1 < all.size() ? "," : "");
        }
        json += strprintf("  },\n  \"des_wall_seconds\": %.6f,\n"
                          "  \"analytical_wall_seconds\": %.6f,\n"
                          "  \"speedup\": %.2f\n}\n",
                          des_wall, ana_wall, speedup);
        std::ofstream out(out_path, std::ios::binary);
        if (out && (out << json))
            std::printf("wrote cross-validation artifact: %s\n",
                        out_path.c_str());
        else {
            std::fprintf(stderr, "failed to write %s\n",
                         out_path.c_str());
            return 2;
        }
    }

    if (!tolerance_ok) {
        std::fprintf(stderr,
                     "\ncross-validation FAILED: backend drift beyond "
                     "tolerance\n");
        return 1;
    }
    std::printf("\ncross-validation OK: every preset within "
                "tolerance\n");
    return 0;
}
