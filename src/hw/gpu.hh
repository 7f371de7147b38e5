/**
 * @file
 * The simulated GPU device: activity tracking, power computation,
 * DVFS state, traffic counters, and its time-weighted record (energy,
 * average power, clock, throttle ratio, activity gauges). Temperature
 * is owned by the ThermalModel (read it through the Platform) and
 * pushed in at governor evaluations.
 */

#ifndef CHARLLM_HW_GPU_HH
#define CHARLLM_HW_GPU_HH

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/marked_set.hh"
#include "common/stats.hh"
#include "hw/compute_model.hh"
#include "hw/dvfs.hh"
#include "hw/gpu_spec.hh"
#include "hw/kernel.hh"

namespace charllm {
namespace hw {

/** Interconnect classes for per-GPU traffic accounting (Figure 5). */
enum class TrafficClass
{
    NvLink,
    Xgmi,
    Pcie,
    InfiniBand,
    NumClasses
};

constexpr std::size_t kNumTrafficClasses =
    static_cast<std::size_t>(TrafficClass::NumClasses);

/** One signal's time average over a GpuRecord's window. */
struct TimeAverage
{
    double integral; //!< the signal integrated over the window
    double duration; //!< window length, seconds
    double held;     //!< value held at the window's end
    double peak;     //!< highest value held for dt > 0 (-inf if none)

    /** Time-weighted mean; the held value over a zero-length window. */
    double mean() const { return duration > 0.0 ? integral / duration : held; }
    double max() const { return peak; }
};

/**
 * One device's time-weighted accounting. Its five signals are piecewise
 * constant and change at the same instants, so they share one timestamp
 * and a change computes one dt. The power integral is the energy.
 */
class GpuRecord
{
  public:
    enum Signal { Power, Clock, Occupancy, Warps, Threadblocks, NumSignals };
    using Values = std::array<double, NumSignals>;

    GpuRecord() { peak.fill(-std::numeric_limits<double>::infinity()); }

    /** Integrate the held values up to @p now, then hold @p values. */
    void set(double now, const Values& values);

    /** Discard the integrals; the held values hold from @p now on. */
    void restart(double now);

    TimeAverage
    average(Signal s) const
    {
        return {sum[s], span, held[s], peak[s]};
    }

    /** Share of the window the clock sat below
     *  calib::kThrottleClockThresholdRel (0 over an empty window). */
    double throttleRatio() const { return span > 0.0 ? below / span : 0.0; }

  private:
    double since = 0.0; //!< when the held values took effect
    double span = 0.0;  //!< window length
    double below = 0.0; //!< time with the clock below the threshold
    Values held = {};
    Values sum = {};
    Values peak;
};

/**
 * One simulated accelerator. The runtime engine reports kernel
 * begin/end; the platform drives thermal/governor ticks. All times are
 * floating-point simulated seconds (converted at the sim boundary).
 */
class Gpu
{
  public:
    Gpu(int global_id, const GpuSpec& spec);

    int id() const { return globalId; }
    const GpuSpec& spec() const { return gpuSpec; }
    const ComputeModel& computeModel() const { return compute; }

    // ---- activity (runtime engine side) --------------------------------
    /**
     * Register the start of a kernel; returns a token for kernelEnd.
     * @param sm_util SM utilization in [0,1] for compute kernels
     *        (ignored for communication classes).
     */
    std::uint64_t kernelBegin(KernelClass cls, double sm_util, double now);

    /** Register the end of the kernel identified by @p token. */
    void kernelEnd(std::uint64_t token, double now);

    /** Accumulate per-class busy time for breakdown reporting. */
    void addKernelTime(KernelClass cls, Seconds duration);

    // ---- device state ----------------------------------------------------
    /** Effective relative clock: governor clock x injected slowdown. */
    ClockRel clockRel() const { return governor.clockRel() * slowdown; }
    double clockGhz() const
    {
        return gpuSpec.nominalClockGhz * clockRel().value();
    }
    Watts power() const { return Watts(powerStats().held); }
    Joules energyJoules() const { return Joules(powerStats().integral); }
    ThrottleReason
    throttleReason() const
    {
        if (slowdown < 1.0)
            return ThrottleReason::Fault;
        return governor.lastReason();
    }

    /** Whether any compute-class kernel is currently active. */
    bool computeActive() const { return activity.computeKernels > 0; }
    /** Whether any communication-class kernel is currently active. */
    bool commActive() const { return activity.commKernels > 0; }

    /** Instantaneous occupancy / warp / threadblock gauges (Fig. 20). */
    double occupancy() const { return activity.occupancy; }
    double warpsPerSm() const { return activity.warps; }
    double threadblocks() const { return activity.threadblocks; }

    // ---- platform side -----------------------------------------------------
    /** What one governor evaluation did. */
    struct GovernorStep
    {
        bool clockChanged = false; //!< effective clock moved: re-time work
        bool stateChanged = false; //!< governor clock or reason moved
    };

    /** Run the DVFS governor at junction temperature @p temp. */
    GovernorStep governorUpdate(Celsius temp, double now);

    /**
     * Record @p temp in the temperature statistics and run the DVFS
     * governor. Returns true if the clock changed (so in-flight
     * compute kernels must be re-timed).
     */
    bool thermalUpdate(Celsius temp, double now);

    /** Record the junction temperature @p temp, holding from @p now. */
    void
    recordTemperature(Celsius temp, double now)
    {
        tempTw.update(now, temp.value());
    }

    /** Record a run of evenly spaced temperatures at once (see
     *  TimeWeightedStats::updateRun). */
    void
    recordTemperatureRun(double first, double last, std::int64_t n,
                         double sum, double lo, double hi,
                         double last_value)
    {
        tempTw.updateRun(first, last, n, sum, lo, hi, last_value);
    }

    const DvfsGovernor& dvfs() const { return governor; }

    /**
     * Mark @p key in @p changes whenever this device's governor inputs
     * change: activity, power, power cap or slowdown.
     */
    void
    watchChanges(MarkedSet* changes, int key)
    {
        changeLog = changes;
        changeKey = key;
    }

    /**
     * Override the power limit (models node-level power delivery
     * faults; pass spec TDP to restore).
     */
    void
    setPowerCap(Watts watts)
    {
        powerCapW = watts.value();
        noteChange();
    }

    /**
     * Injected performance derate (fault injection): the device runs
     * at @p factor of its governor clock until restored. Pass 1.0 to
     * restore health. Returns true if the effective clock changed (so
     * in-flight compute must be re-timed).
     */
    bool setSlowdown(double factor, double now);

    // ---- traffic counters ---------------------------------------------------
    void addTraffic(TrafficClass cls, Bytes bytes);
    Bytes trafficBytes(TrafficClass cls) const;

    // ---- statistics -----------------------------------------------------------
    const KernelTimeBreakdown& breakdown() const { return kernelTime; }
    const TimeWeightedStats& tempStats() const { return tempTw; }
    TimeAverage powerStats() const { return record.average(Power); }
    TimeAverage clockStats() const { return record.average(Clock); }
    TimeAverage occupancyStats() const { return record.average(Occupancy); }
    TimeAverage warpStats() const { return record.average(Warps); }
    TimeAverage
    threadblockStats() const
    {
        return record.average(Threadblocks);
    }

    /** Time-weighted fraction of time spent below nominal clock. */
    double throttleRatio() const { return record.throttleRatio(); }

    /** Record refreshes over the device's life, each one reading the
     *  power formula. */
    std::uint64_t refreshes() const { return refreshCount; }
    /** Refreshes that evaluated clk^kClockPowerExp: the clock memo's
     *  misses. */
    std::uint64_t powerEvals() const { return powerEvalCount; }

    /** Close all statistics intervals at @p now (end of measurement). */
    void finishStats(double now);

    /** Discard accumulated statistics/energy (end of warmup). */
    void resetStats(double now);

  private:
    using enum GpuRecord::Signal;

    struct ActiveKernel
    {
        std::uint64_t token;
        KernelClass cls;
        double smUtil;
    };

    /** Active-set capacity reserved up front: a device runs at most a
     *  compute kernel plus a few overlapped communication kernels, so
     *  kernelBegin stays allocation-free. */
    static constexpr std::size_t kActiveReserve = 8;

    /** What the active kernels add up to. */
    struct Activity
    {
        double power = 0.0; //!< stacked power activity (stackedActivity)
        double occupancy = 0.0;
        double warps = 0.0;
        double threadblocks = 0.0;
        int computeKernels = 0;
        int commKernels = 0;
    };

    /** Recompute the activity aggregate in one pass over `active` and
     *  refresh at @p now; run whenever the active set changes. */
    void aggregate(double now);

    /** Set the record's signals from the aggregate and the clock. */
    void refresh(double now);

    /** clk^kClockPowerExp, from the memo when @p clk is one of the two
     *  clocks it holds; a miss replaces the least recently used one. */
    double clockScale(double clk);

    void
    noteChange()
    {
        if (changeLog)
            changeLog->mark(changeKey);
    }

    int globalId;
    GpuSpec gpuSpec;
    ComputeModel compute;
    DvfsGovernor governor;

    std::uint64_t nextToken = 1;
    /** Kernels in flight, in ascending token (= issue) order. */
    std::vector<ActiveKernel> active;
    Activity activity;

    double powerCapW;
    double slowdown = 1.0; //!< injected derate, 1.0 = healthy
    MarkedSet* changeLog = nullptr;
    int changeKey = 0;

    double traffic[kNumTrafficClasses] = {};
    KernelTimeBreakdown kernelTime;

    GpuRecord record;
    TimeWeightedStats tempTw; //!< recorded on the governor's cadence

    // The power-cap limit cycle moves the clock between two values, so
    // a two-entry memo spares refresh the pow of nearly every change.
    std::array<double, 2> memoClk = {
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::quiet_NaN()};
    std::array<double, 2> memoScale = {};
    std::size_t memoVictim = 0; //!< the entry the next miss replaces
    std::uint64_t refreshCount = 0;
    std::uint64_t powerEvalCount = 0;
};

} // namespace hw
} // namespace charllm

#endif // CHARLLM_HW_GPU_HH
