// Simulated outputs of a pass, the committed reference they are checked
// against, and the report writer the observed workload calls.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/report.hh"
#include "hostbench.hh"

namespace hostbench {

namespace {

constexpr const char* kCausePrefix = "cause.";

/** Outputs that are already shares of time in [0, 1]; they are compared
 *  by absolute difference, so a share that is 0 in the reference does
 *  not turn a tiny change into an unbounded relative error. */
bool
isShare(const std::string& name)
{
    return name == "throttle_ratio" || name.rfind(kCausePrefix, 0) == 0;
}

} // namespace

Outputs
checkedOutputs(const core::ExperimentResult& r)
{
    Outputs out;
    out.emplace_back("feasible", r.feasible ? 1.0 : 0.0);
    if (!r.feasible)
        return out;
    out.emplace_back("iteration_s", r.avgIterationSeconds);
    out.emplace_back("tokens_per_s", r.tokensPerSecond);
    out.emplace_back("tokens_per_j", r.tokensPerJoule);
    out.emplace_back("peak_temp_c", r.peakTempC);
    out.emplace_back("throttle_ratio", r.throttleRatio);
    if (r.goodputValid)
        out.emplace_back("ettr", r.goodput.ettr());
    if (r.critPath && r.critPath->meanWallSeconds > 0.0) {
        for (std::size_t c = 0; c < obs::kNumCauseClasses; ++c) {
            out.emplace_back(
                std::string(kCausePrefix) +
                    obs::causeClassName(static_cast<obs::CauseClass>(c)),
                r.critPath->meanCauseSeconds[c] /
                    r.critPath->meanWallSeconds);
        }
    }
    return out;
}

Outputs
bitwiseOutputs(const core::ExperimentResult& r)
{
    Outputs out = checkedOutputs(r);
    out.emplace_back("total_energy_j", r.totalEnergyJ);
    out.emplace_back("avg_power_w", r.avgPowerW);
    out.emplace_back("events",
                     static_cast<double>(r.counters.eventsPopped));
    out.emplace_back("flows",
                     static_cast<double>(r.counters.flowsStarted));
    out.emplace_back("full_recomputes",
                     static_cast<double>(r.counters.flowFullRecomputes));
    for (std::size_t i = 0; i < r.iterationSeconds.size(); ++i)
        out.emplace_back("iteration_" + std::to_string(i),
                         r.iterationSeconds[i]);
    return out;
}

double
maxDeviation(const Outputs& got, const Outputs& ref)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double worst = 0.0;
    for (const auto& [name, want] : ref) {
        const double* have = nullptr;
        for (const auto& [n, v] : got) {
            if (n == name) {
                have = &v;
                break;
            }
        }
        if (have == nullptr || !std::isfinite(*have))
            return kInf;
        if (name == "feasible") {
            if (*have != want)
                return kInf;
            continue;
        }
        double dev = isShare(name)
                         ? std::fabs(*have - want)
                         : std::fabs(*have - want) /
                               std::max(std::fabs(want), 1e-12);
        worst = std::max(worst, dev);
    }
    return worst;
}

std::string
caseKey(const Workload& w, std::size_t config)
{
    std::string key;
    if (w.seeded) {
        key += 's';
        key += std::to_string(w.failureSeed);
        key += '.';
    }
    key += 'c';
    key += std::to_string(config);
    return key;
}

std::vector<std::uint64_t>
failureSeedPool(const Reference& ref)
{
    std::vector<std::uint64_t> pool;
    for (const auto& entry : ref) {
        const std::string& key = entry.first;
        if (key.size() > 1 && key[0] == 's')
            pool.push_back(std::strtoull(key.c_str() + 1, nullptr, 10));
    }
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    return pool;
}

bool
loadReference(const std::string& path, Reference* out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, name, value;
        if (!(fields >> key >> name >> value))
            return false;
        (*out)[key].emplace_back(name, std::strtod(value.c_str(), nullptr));
    }
    return true;
}

void
formatReference(const std::string& key, const Outputs& outputs,
                std::string* text)
{
    char buf[64];
    for (const auto& [name, value] : outputs) {
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        *text += key + " " + name + " " + buf + "\n";
    }
}

ReportCost
writeReportsTimed(const core::ExperimentResult& result,
                  const std::string& dir, const std::string& stem)
{
    ReportCost cost;
    double t0 = hostSeconds();
    auto paths = core::writeReports(result, dir, stem);
    cost.writeSec = hostSeconds() - t0;
    for (const auto& p : paths) {
        std::error_code ec;
        auto size = std::filesystem::file_size(p, ec);
        if (!ec)
            cost.bytes += size;
    }
    return cost;
}

} // namespace hostbench
