/**
 * @file
 * Statistics accumulators used by the telemetry and reporting layers.
 */

#ifndef CHARLLM_COMMON_STATS_HH
#define CHARLLM_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <limits>

namespace charllm {

/**
 * Streaming scalar statistics (Welford's algorithm): mean, variance,
 * min, max, count — without storing the samples.
 */
class RunningStats
{
  public:
    void add(double x);
    void merge(const RunningStats& other);
    void reset();

    std::size_t count() const { return n; }
    double mean() const { return n ? mu : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const { return n ? lo : 0.0; }
    double max() const { return n ? hi : 0.0; }
    double sum() const { return total; }

  private:
    std::size_t n = 0;
    double mu = 0.0;
    double m2 = 0.0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    double total = 0.0;
};

/**
 * Time-weighted statistics for a piecewise-constant signal: each value
 * holds from the previous update time to the current one. Constant
 * memory: nothing grows with simulated time and update() never
 * allocates. (A device's power, clock and activity gauges share one
 * clock in hw::GpuRecord; this serves signals recorded on their own
 * cadence, such as temperature.)
 */
class TimeWeightedStats
{
  public:
    /**
     * Record that the signal took @p value starting at @p time (seconds).
     * The previously recorded value is weighted by the elapsed interval.
     */
    void update(double time, double value);

    /**
     * Record @p n + 1 updates at evenly spaced times in one call:
     * update(first + k (last - first) / n, v_k) for k = 0..n, where
     * v_0..v_{n-1} sum to @p sum and lie in [@p lo, @p hi], and v_n is
     * @p last_value.
     */
    void updateRun(double first, double last, std::int64_t n, double sum,
                   double lo, double hi, double last_value);

    /** Close the last interval at @p time without changing the value. */
    void finish(double time);

    /** Discard everything accumulated; the current value holds from
     *  @p time on. */
    void restart(double time);

    double mean() const;
    double min() const { return hasSample ? lo : 0.0; }
    double max() const { return hasSample ? hi : 0.0; }
    double duration() const { return totalTime; }

  private:
    void accumulate(double until);

    bool hasSample = false;
    double lastTime = 0.0;
    double lastValue = 0.0;
    double weighted = 0.0;
    double totalTime = 0.0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
};

} // namespace charllm

#endif // CHARLLM_COMMON_STATS_HH
