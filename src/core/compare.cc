#include "core/compare.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/logging.hh"
#include "common/strings.hh"

namespace charllm {
namespace core {

namespace {

constexpr double kOff = std::numeric_limits<double>::infinity();

/** Bounds on iteration time, tokens/s, energy and average power, with
 *  the thermal metrics ungated. */
constexpr std::array<double, kNumMetrics>
headline(double iter, double tokens, double energy, double power)
{
    return {iter, tokens, energy, power, kOff, kOff, kOff, kOff};
}

constexpr double kThermal = 1e-9;

/** The tolerance table; bounds in Metric order (iteration time,
 *  tokens/s, energy, average power, peak and mean temperature, throttle
 *  ratio, mean clock). Widening one is reviewed here. */
constexpr ToleranceRow kTable[] = {
    // Repeated runs, parallel sweeps and collapsed-vs-full runs.
    {"bitwise", headline(kOff, kOff, kOff, kOff), true},
    // bench_backend_xval: analytical vs DES, one row per preset.
    {"backend-xval/fig09-optimizations", headline(0.10, 0.10, 0.10, kOff)},
    {"backend-xval/fig13-microbatch", headline(0.10, 0.10, 0.10, kOff)},
    {"backend-xval/table2-moe", headline(0.10, 0.10, 0.10, kOff)},
    {"backend-xval/fig10-mi250", headline(0.10, 0.10, 0.10, kOff)},
    {"backend-xval/fig23-inference", headline(0.10, 0.10, 0.10, kOff)},
    {"backend-xval/fig02-scaleout", headline(0.10, 0.10, 0.10, kOff)},
    // A short analytical run vs DES (test_backend): a ballpark.
    {"analytical-smoke", headline(0.35, 0.35, 0.35, 0.30)},
    // fig22 --symmetry=on vs collapsed DES: the analytical backend, and
    // the first-order scale::Projector (a factor-of-two gate).
    {"fig22/analytical", headline(0.05, kOff, kOff, kOff)},
    {"fig22/projector-dp<=4", headline(0.50, kOff, kOff, kOff)},
    {"fig22/projector", headline(1.00, kOff, kOff, kOff)},
    // Lazy governor ticks (closed-form temperatures) vs the eager
    // forward-Euler twin: the same discrete model, so only rounding,
    // per GPU as well as per cluster (ThermalTwin).
    {"thermal",
     {kThermal, kThermal, kThermal, kThermal, kThermal, kThermal, kThermal,
      kThermal},
     false, true},
};

using R = ExperimentResult;
constexpr double R::*kMetricFields[kNumMetrics] = {
    &R::avgIterationSeconds, &R::tokensPerSecond, &R::totalEnergyJ,
    &R::avgPowerW,           &R::peakTempC,       &R::avgTempC,
    &R::throttleRatio,       &R::avgClockGhz};

/** Each metric's GpuResult field, if a GPU has one. */
constexpr double GpuResult::*kGpuMetricFields[kNumMetrics] = {
    nullptr,
    nullptr,
    &GpuResult::energyJ,
    &GpuResult::avgPowerW,
    &GpuResult::peakTempC,
    &GpuResult::avgTempC,
    &GpuResult::throttleRatio,
    &GpuResult::avgClockGhz};

/** The telemetry::Sample reading each metric bounds, if any. */
using SampleField = double (*)(const telemetry::Sample&);
constexpr SampleField kSampleMetricFields[kNumMetrics] = {
    nullptr,
    nullptr,
    nullptr,
    [](const telemetry::Sample& s) { return s.powerWatts.value(); },
    nullptr,
    [](const telemetry::Sample& s) { return s.tempC.value(); },
    nullptr,
    [](const telemetry::Sample& s) { return s.clockGhz; }};

constexpr std::pair<const char*, double R::*> kClusterFields[] = {
    {"avgIterationSeconds", &R::avgIterationSeconds},
    {"tokensPerIteration", &R::tokensPerIteration},
    {"tokensPerSecond", &R::tokensPerSecond},
    {"totalEnergyJ", &R::totalEnergyJ},
    {"energyPerTokenJ", &R::energyPerTokenJ},
    {"tokensPerJoule", &R::tokensPerJoule},
    {"avgPowerW", &R::avgPowerW},
    {"peakPowerW", &R::peakPowerW},
    {"avgTempC", &R::avgTempC},
    {"peakTempC", &R::peakTempC},
    {"avgClockGhz", &R::avgClockGhz},
    {"throttleRatio", &R::throttleRatio},
    {"measureStartSec", &R::measureStartSec},
};

/** Names of the leading doubles of the structs compared as arrays of
 *  doubles; a GpuResult's trailing ones are its breakdown. */
constexpr const char* kGpuFields[] = {
    "avgPowerW", "peakPowerW", "avgTempC", "peakTempC", "avgClockGhz",
    "throttleRatio", "avgOccupancy", "avgWarps", "avgThreadblocks",
    "energyJ", "pcieBytes", "scaleUpBytes"};
constexpr const char* kMemoryFields[] = {
    "weights", "gradients", "optimizer", "activations", "workspace"};
constexpr const char* kSampleFields[] = {
    "time", "powerWatts", "tempC", "clockGhz", "occupancy", "pcieRate",
    "scaleUpRate"}; // then the fault tag
static_assert(sizeof(GpuResult) ==
                      sizeof(double) * (std::size(kGpuFields) +
                                        hw::kNumKernelClasses) &&
                  sizeof(parallel::MemoryBreakdown) ==
                      sizeof(double) * std::size(kMemoryFields) &&
                  offsetof(telemetry::Sample, fault) ==
                      sizeof(double) * std::size(kSampleFields),
              "name every new field above, so the bitwise row compares it");

/** Compares with == and appends one line per mismatch. */
struct ExactDiff
{
    std::vector<std::string>& out;

    void
    value(const std::string& where, const char* field, double a, double b)
    {
        if (a != b)
            out.push_back(strprintf("%s%s: %.17g != %.17g", where.c_str(),
                                    field, a, b));
    }

    bool
    sameSize(const std::string& where, std::size_t a, std::size_t b)
    {
        if (a != b)
            out.push_back(
                strprintf("%s: %zu entries != %zu", where.c_str(), a, b));
        return a == b;
    }

    /** The first @p count doubles of two structs of doubles, named by
     *  @p names and then by kernel class. */
    template <typename T>
    void
    doubles(const std::string& where, const T& a, const T& b,
            std::span<const char* const> names,
            std::size_t count = sizeof(T) / sizeof(double))
    {
        static_assert(std::is_trivially_copyable_v<T>);
        double x[sizeof(T) / sizeof(double)];
        double y[sizeof(T) / sizeof(double)];
        std::memcpy(x, &a, sizeof(T));
        std::memcpy(y, &b, sizeof(T));
        for (std::size_t i = 0; i < count; ++i) {
            if (x[i] == y[i])
                continue;
            if (i < names.size()) {
                value(where, names[i], x[i], y[i]);
                continue;
            }
            auto cls = static_cast<hw::KernelClass>(i - names.size());
            value(where,
                  strprintf("%s[%s]", names.empty() ? "" : "breakdown",
                            hw::kernelClassName(cls))
                      .c_str(),
                  x[i], y[i]);
        }
    }
};

/** The larger error, or a NaN from either side. */
double
worse(double err, double e)
{
    return std::isnan(err) || e <= err ? err : e;
}

/** Every output the bitwise row covers. */
void
compareExactly(const R& fast, const R& ref, std::vector<std::string>& out)
{
    ExactDiff diff{out};
    if (fast.label != ref.label)
        out.push_back("label: '" + fast.label + "' != '" + ref.label + "'");
    diff.doubles("memory.", fast.memory, ref.memory, kMemoryFields);
    if (diff.sameSize("iterationSeconds", fast.iterationSeconds.size(),
                      ref.iterationSeconds.size())) {
        for (std::size_t i = 0; i < fast.iterationSeconds.size(); ++i)
            diff.value(strprintf("iterationSeconds[%zu]", i), "",
                       fast.iterationSeconds[i], ref.iterationSeconds[i]);
    }
    for (const auto& [name, member] : kClusterFields)
        diff.value("", name, fast.*member, ref.*member);
    diff.doubles("meanBreakdown", fast.meanBreakdown, ref.meanBreakdown, {});
    if (diff.sameSize("gpus", fast.gpus.size(), ref.gpus.size())) {
        for (std::size_t g = 0; g < fast.gpus.size(); ++g)
            diff.doubles(strprintf("gpus[%zu].", g), fast.gpus[g],
                         ref.gpus[g], kGpuFields);
    }
    if (!diff.sameSize("series", fast.series.size(), ref.series.size()))
        return;
    for (std::size_t g = 0; g < fast.series.size(); ++g) {
        const auto& a = fast.series[g];
        const auto& b = ref.series[g];
        if (!diff.sameSize(strprintf("series[%zu]", g), a.size(), b.size()))
            continue;
        for (std::size_t s = 0; s < a.size(); ++s) {
            std::string where = strprintf("series[%zu][%zu].", g, s);
            diff.doubles(where, a[s], b[s], kSampleFields,
                         std::size(kSampleFields));
            if (std::strcmp(a[s].fault, b[s].fault) != 0)
                out.push_back(strprintf("%sfault: '%s' != '%s'",
                                        where.c_str(), a[s].fault,
                                        b[s].fault));
        }
    }
}

} // namespace

const char*
metricName(Metric m)
{
    constexpr const char* kNames[kNumMetrics] = {
        "iteration time",   "tokens/s",         "energy",
        "average power",    "peak temperature", "mean temperature",
        "throttle ratio",   "mean clock"};
    return kNames[std::size_t(m)];
}

double
relativeError(double fast, double reference)
{
    return std::fabs(fast - reference) /
           std::max(std::fabs(reference), 1e-12);
}

double
metricError(Metric m, double fast, double reference)
{
    return m == Metric::ThrottleRatio ? std::fabs(fast - reference)
                                      : relativeError(fast, reference);
}

std::span<const ToleranceRow>
toleranceTable()
{
    return kTable;
}

const ToleranceRow&
tolerance(std::string_view name)
{
    for (const ToleranceRow& row : kTable) {
        if (name == row.name)
            return row;
    }
    CHARLLM_PANIC("no tolerance row named '", name, "'");
}

Comparison
compareResults(const R& fast, const R& reference, const ToleranceRow& row)
{
    Comparison out;
    if (fast.feasible != reference.feasible)
        out.breaches.push_back(strprintf(
            "feasibility: fast run %s, reference %s",
            fast.feasible ? "feasible" : "infeasible",
            reference.feasible ? "feasible" : "infeasible"));
    bool both = fast.feasible && reference.feasible;
    bool per_gpu = both && row.perGpu &&
                   ExactDiff{out.breaches}.sameSize(
                       "gpus", fast.gpus.size(), reference.gpus.size());
    bool per_sample =
        per_gpu && ExactDiff{out.breaches}.sameSize(
                       "series", fast.series.size(), reference.series.size());
    for (std::size_t g = 0; per_sample && g < fast.series.size(); ++g)
        per_sample = ExactDiff{out.breaches}.sameSize(
            strprintf("series[%zu]", g), fast.series[g].size(),
            reference.series[g].size());
    auto samples = [&](Metric m, SampleField read) {
        double err = 0.0;
        for (std::size_t g = 0; per_sample && g < fast.series.size(); ++g) {
            for (std::size_t k = 0; k < fast.series[g].size(); ++k)
                err = worse(err, metricError(m, read(fast.series[g][k]),
                                             read(reference.series[g][k])));
        }
        return err;
    };
    for (std::size_t i = 0; both && i < kNumMetrics; ++i) {
        auto m = Metric(i);
        double err = metricError(m, fast.*kMetricFields[i],
                                 reference.*kMetricFields[i]);
        const auto gpu_field = kGpuMetricFields[i];
        for (std::size_t g = 0; per_gpu && gpu_field && g < fast.gpus.size();
             ++g)
            err = worse(err, metricError(m, fast.gpus[g].*gpu_field,
                                         reference.gpus[g].*gpu_field));
        if (auto read = kSampleMetricFields[i])
            err = worse(err, samples(m, read));
        out.error[i] = err;
        if (!(err <= row.bound[i]))
            out.breaches.push_back(strprintf(
                "%s: %s error %.3g exceeds %.3g", metricName(m),
                m == Metric::ThrottleRatio ? "absolute" : "relative", err,
                row.bound[i]));
    }
    if (row.bitwise)
        compareExactly(fast, reference, out.breaches);
    return out;
}

} // namespace core
} // namespace charllm
