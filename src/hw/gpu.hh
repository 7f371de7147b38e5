/**
 * @file
 * The simulated GPU device: activity tracking, power computation,
 * energy integration, DVFS state, traffic counters, and telemetry
 * statistics. Temperature is owned by the ThermalModel (read it through
 * the Platform) and pushed in at governor evaluations.
 */

#ifndef CHARLLM_HW_GPU_HH
#define CHARLLM_HW_GPU_HH

#include <cstdint>
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

inline const char*
trafficClassName(TrafficClass t)
{
    switch (t) {
      case TrafficClass::NvLink: return "NVLink";
      case TrafficClass::Xgmi: return "xGMI";
      case TrafficClass::Pcie: return "PCIe";
      case TrafficClass::InfiniBand: return "InfiniBand";
      default: return "?";
    }
}

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
    Watts power() const { return Watts(currentPower); }
    Joules energyJoules() const { return Joules(energy); }
    ThrottleReason
    throttleReason() const
    {
        if (slowdown < 1.0)
            return ThrottleReason::Fault;
        return governor.lastReason();
    }

    /** Whether any compute-class kernel is currently active. */
    bool computeActive() const { return activeComputeCount > 0; }
    /** Whether any communication-class kernel is currently active. */
    bool commActive() const { return activeCommCount > 0; }

    /** Instantaneous occupancy / warp / threadblock gauges (Fig. 20). */
    double occupancy() const;
    double warpsPerSm() const;
    double threadblocks() const;

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
    Watts powerCap() const { return Watts(powerCapW); }

    /**
     * Injected performance derate (fault injection): the device runs
     * at @p factor of its governor clock until restored. Pass 1.0 to
     * restore health. Returns true if the effective clock changed (so
     * in-flight compute must be re-timed).
     */
    bool setSlowdown(double factor, double now);
    double slowdownFactor() const { return slowdown; }

    // ---- traffic counters ---------------------------------------------------
    void addTraffic(TrafficClass cls, Bytes bytes);
    Bytes trafficBytes(TrafficClass cls) const;

    // ---- statistics -----------------------------------------------------------
    const KernelTimeBreakdown& breakdown() const { return kernelTime; }
    const TimeWeightedStats& powerStats() const { return powerTw; }
    const TimeWeightedStats& tempStats() const { return tempTw; }
    const TimeWeightedStats& clockStats() const { return clockTw; }
    const TimeWeightedStats& occupancyStats() const { return occTw; }
    const TimeWeightedStats& warpStats() const { return warpTw; }
    const TimeWeightedStats& threadblockStats() const { return blockTw; }

    /** Time-weighted fraction of time spent below nominal clock. */
    double throttleRatio() const;

    /** Close all statistics intervals at @p now (end of measurement). */
    void finishStats(double now);

    /** Discard accumulated statistics/energy (end of warmup). */
    void resetStats(double now);

  private:
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

    /** Recompute power from current activity/clock and restat. */
    void refresh(double now);

    void
    noteChange()
    {
        if (changeLog)
            changeLog->mark(changeKey);
    }

    /** Instantaneous power for the current activity set. */
    double computePower() const;

    int globalId;
    GpuSpec gpuSpec;
    ComputeModel compute;
    DvfsGovernor governor;

    std::uint64_t nextToken = 1;
    /** Kernels in flight, in ascending token (= issue) order. */
    std::vector<ActiveKernel> active;
    int activeComputeCount = 0;
    int activeCommCount = 0;

    double currentPower;
    double powerCapW;
    double slowdown = 1.0; //!< injected derate, 1.0 = healthy
    MarkedSet* changeLog = nullptr;
    int changeKey = 0;
    double energy = 0.0;
    double lastEnergyTime = 0.0;

    double traffic[kNumTrafficClasses] = {};
    KernelTimeBreakdown kernelTime;

    TimeWeightedStats powerTw;
    TimeWeightedStats tempTw;
    TimeWeightedStats clockTw; //!< fractionBelow = throttle ratio
    TimeWeightedStats occTw;
    TimeWeightedStats warpTw;
    TimeWeightedStats blockTw;
};

} // namespace hw
} // namespace charllm

#endif // CHARLLM_HW_GPU_HH
