/**
 * @file
 * The one fast-vs-reference comparison: each fast path (analytical
 * backend, symmetry collapse, parallel sweep, repeated run) states its
 * fidelity contract as a named row of one tolerance table (DESIGN.md
 * §9). A new fast path adds a row, not a comparison.
 */

#ifndef CHARLLM_CORE_COMPARE_HH
#define CHARLLM_CORE_COMPARE_HH

#include <array>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hh"

namespace charllm {
namespace core {

/** Headline metrics a tolerance row can bound. */
enum class Metric
{
    IterationTime,   //!< avgIterationSeconds
    TokensPerSecond, //!< tokensPerSecond
    Energy,          //!< totalEnergyJ
    AvgPower,        //!< avgPowerW
    PeakTemp,        //!< peakTempC
    AvgTemp,         //!< avgTempC
    ThrottleRatio,   //!< throttleRatio: a share of time, bounded absolutely
    AvgClock,        //!< avgClockGhz
};

inline constexpr std::size_t kNumMetrics = 8;

/** Readable metric name, as breaches report it. */
const char* metricName(Metric m);

/** |fast - reference| / max(|reference|, 1e-12). */
double relativeError(double fast, double reference);

/** The error a row bounds for @p m: relativeError, except the absolute
 *  difference for ThrottleRatio, which is already a share in [0, 1]. */
double metricError(Metric m, double fast, double reference);

/** One named fidelity contract. */
struct ToleranceRow
{
    const char* name;
    /** Largest relative error allowed per Metric (infinity: ungated). */
    std::array<double, kNumMetrics> bound;
    /** Also require every output to be equal (==). */
    bool bitwise = false;
    /** Also bound every GPU's own value of each metric a GpuResult
     *  carries (all but iteration time and tokens/s), and each
     *  telemetry sample's power, temperature and clock under the
     *  average power, mean temperature and mean clock bounds. */
    bool perGpu = false;

    double operator[](Metric m) const { return bound[std::size_t(m)]; }
};

/** Every row, in table order (the table lives in compare.cc). */
std::span<const ToleranceRow> toleranceTable();

/** The row named @p name (panics on an unknown name). */
const ToleranceRow& tolerance(std::string_view name);

/** What compareResults found. */
struct Comparison
{
    /** metricError per Metric, the worst over GPUs under a perGpu row
     *  (zero unless both runs are feasible). */
    std::array<double, kNumMetrics> error{};
    /** One readable line per breach; empty means within the row. */
    std::vector<std::string> breaches;

    bool ok() const { return breaches.empty(); }
    double operator[](Metric m) const { return error[std::size_t(m)]; }
};

/**
 * @p fast against @p reference under @p row. A feasibility mismatch
 * breaches every row; a metric breaches unless its relative error is
 * within its bound (NaN breaches). A bitwise row also compares with
 * == the label, memory breakdown, iteration vector, measure-start
 * time, every cluster metric, the mean breakdown, every GpuResult and
 * every telemetry sample with its fault tag, but not the provenance
 * (symmetry, counters) or trace, where a collapsed run differs.
 */
Comparison compareResults(const ExperimentResult& fast,
                          const ExperimentResult& reference,
                          const ToleranceRow& row);

} // namespace core
} // namespace charllm

#endif // CHARLLM_CORE_COMPARE_HH
