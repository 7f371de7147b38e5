/**
 * @file
 * Metrics registry: named counters, gauges, and log-bucketed
 * histograms for simulator self-profiling.
 *
 * Design contract (enforced by simcheck's obs-header-alloc rule):
 *  - The increment path never allocates. Counter::inc, Gauge::set and
 *    Histogram::observe are plain member stores on fixed-size state.
 *  - Zero overhead when disabled. Components that accept an optional
 *    metric handle take a pointer defaulting to nullptr; the inline
 *    null check is the entire disabled-path cost. Hot-path components
 *    (sim::EventQueue, net::FlowNetwork) additionally keep their own
 *    raw integer counters and are harvested into a registry only at
 *    end of run via SimCounters.
 *  - Registration and dumping may allocate freely; both happen once
 *    per run, outside the event loop.
 *
 * Metric names are dot-separated lowercase with unit-suffixed leaves
 * ("sim.events_popped", "sweep.task_wall_seconds"); see DESIGN.md
 * "Observability architecture" for the naming rules.
 */

#ifndef CHARLLM_OBS_METRICS_HH
#define CHARLLM_OBS_METRICS_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

namespace charllm {
namespace hw {
class Platform;
}
namespace net {
class FlowNetwork;
}
namespace sim {
class EventQueue;
class Simulator;
}

namespace obs {

/** Monotonic event count. */
class Counter
{
  public:
    void inc(std::uint64_t delta = 1) { count += delta; }
    std::uint64_t value() const { return count; }

  private:
    std::uint64_t count = 0;
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void set(double value) { current = value; }
    double value() const { return current; }

  private:
    double current = 0.0;
};

/**
 * Power-of-two log-bucketed histogram over positive doubles, with
 * exact count/sum/min/max. Bucket i holds observations in
 * [2^(i-32), 2^(i-31)) — a range spanning ~2.3e-10 .. 4.3e9, wide
 * enough for nanosecond wall times through multi-hour runs.
 * Fixed-size state: observe() never allocates.
 */
class Histogram
{
  public:
    static constexpr std::size_t kBuckets = 64;

    void
    observe(double value)
    {
        ++observations;
        total += value;
        if (value < minimum)
            minimum = value;
        if (value > maximum)
            maximum = value;
        ++buckets[bucketOf(value)];
    }

    std::uint64_t count() const { return observations; }
    double sum() const { return total; }
    double min() const { return observations ? minimum : 0.0; }
    double max() const { return observations ? maximum : 0.0; }
    double
    mean() const
    {
        return observations
                   ? total / static_cast<double>(observations)
                   : 0.0;
    }
    std::uint64_t
    bucketCount(std::size_t i) const
    {
        return buckets.at(i);
    }

    /** Upper bound of bucket @p i (exclusive). */
    static double
    bucketUpperBound(std::size_t i)
    {
        return std::ldexp(1.0, static_cast<int>(i) - 31);
    }

    /**
     * Quantile estimate from the log2 buckets, following the
     * common::stats::Histogram convention (smallest bound such that
     * at least @p q of the observations lie at or below it), clamped
     * to the exact observed [min, max]. For positive data the
     * estimate is within a factor of 2 of the true quantile — the
     * bucket width; see tests/test_obs.cc for the cross-check against
     * the fixed-bin histogram.
     */
    double
    quantile(double q) const
    {
        if (observations == 0)
            return 0.0;
        if (q <= 0.0)
            return min();
        if (q >= 1.0)
            return max();
        double target = q * static_cast<double>(observations);
        double seen = 0.0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            seen += static_cast<double>(buckets[i]);
            if (seen >= target) {
                double upper = bucketUpperBound(i);
                return std::min(std::max(upper, minimum), maximum);
            }
        }
        return max();
    }

  private:
    static std::size_t
    bucketOf(double value)
    {
        if (!(value > 0.0))
            return 0;
        int exp = 0;
        std::frexp(value, &exp); // value = m * 2^exp, m in [0.5, 1)
        int bucket = exp + 31;
        if (bucket < 0)
            bucket = 0;
        if (bucket >= static_cast<int>(kBuckets))
            bucket = static_cast<int>(kBuckets) - 1;
        return static_cast<std::size_t>(bucket);
    }

    std::uint64_t observations = 0;
    double total = 0.0;
    double minimum = std::numeric_limits<double>::infinity();
    double maximum = -std::numeric_limits<double>::infinity();
    std::array<std::uint64_t, kBuckets> buckets{};
};

/**
 * Registry of named metrics. get-or-create accessors return stable
 * references (storage is node-based); dumps iterate in name order,
 * so output is deterministic. Not thread-safe: concurrent writers
 * must aggregate privately and merge on one thread (see
 * core::SweepRunner).
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    bool empty() const;
    std::size_t size() const;

    /** {"counters":{...},"gauges":{...},"histograms":{...}} with
     *  names sorted; histograms dump count/sum/min/max/mean. */
    std::string toJson() const;

  private:
    std::map<std::string, Counter> counters;
    std::map<std::string, Gauge> gauges;
    std::map<std::string, Histogram> histograms;
};

/**
 * End-of-run snapshot of the hot-path internals: event-kernel
 * pops/cancellations/reschedules, slab size and ticker fast-forwards,
 * and flow-solver incremental-vs-full recompute counts. Captured per
 * experiment (the counters live on the per-run Simulator/FlowNetwork)
 * and summed into a MetricsRegistry for dumping.
 */
struct SimCounters
{
    /** Events fired, counting the ticker firings the simulator
     *  fast-forwarded (ticksFastForwarded) as the pops they replace. */
    std::uint64_t eventsPopped = 0;
    /** Pending events cancelled, counting each in-place reschedule
     *  (eventsRescheduled) as the cancellation it replaces. */
    std::uint64_t eventsCancelled = 0;
    std::uint64_t eventSlabSlots = 0;
    std::uint64_t ticksFastForwarded = 0;
    std::uint64_t eventsRescheduled = 0;
    std::uint64_t flowsStarted = 0;
    std::uint64_t flowFullRecomputes = 0;
    std::uint64_t flowFastJoins = 0;
    std::uint64_t flowFastCompletions = 0;
    std::uint64_t faultsInjected = 0;
    std::uint64_t governorTicks = 0;
    std::uint64_t deviceEvals = 0;
    std::uint64_t clockChanges = 0;
    /** Device power reads (Gpu::refresh), and those that evaluated
     *  clk^kClockPowerExp rather than hit the clock memo. */
    std::uint64_t refreshes = 0;
    std::uint64_t powerEvals = 0;

    /** Read the live counters out of a simulation stack. */
    void capture(const sim::EventQueue& queue,
                 const net::FlowNetwork& network);

    /** Same, summing event counters across every partition domain of
     *  @p simulator (identical to the queue overload when the
     *  simulator is unpartitioned). */
    void capture(const sim::Simulator& simulator,
                 const net::FlowNetwork& network);

    /** Read the governor tick counters (hw::GovernorCounters). */
    void capture(const hw::Platform& platform);

    /** Sum this snapshot into @p registry under the sim./net./faults./
     *  hw. prefixes. */
    void addTo(MetricsRegistry& registry) const;

    SimCounters& merge(const SimCounters& other);
};

} // namespace obs
} // namespace charllm

#endif // CHARLLM_OBS_METRICS_HH
