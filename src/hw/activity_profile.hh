/**
 * @file
 * Per-kernel-class activity profiles: the fraction of the idle..TDP
 * power range a fully-busy device draws for each class, plus the
 * occupancy/warp/threadblock gauge contributions, and the device power
 * formula. Shared by the event-driven Gpu and the analytical backend's
 * steady-state power estimator, so both price activity identically.
 */

#ifndef CHARLLM_HW_ACTIVITY_PROFILE_HH
#define CHARLLM_HW_ACTIVITY_PROFILE_HH

#include <algorithm>
#include <cmath>

#include "hw/calibration.hh"
#include "hw/gpu_spec.hh"
#include "hw/kernel.hh"

namespace charllm {
namespace hw {

/** Per-kernel-class activity profile for power/occupancy modelling. */
struct ActivityProfile
{
    double powerActivity; //!< fraction of idle..TDP range at full tilt
    double occupancy;     //!< scheduler-slot occupancy contribution
    double warpsPerSm;    //!< resident warps (relative scale)
    double threadblocks;  //!< resident threadblocks (relative scale)
};

/** The calibrated profile of one kernel class. */
inline const ActivityProfile&
activityProfileFor(KernelClass cls)
{
    using namespace calib;
    static const ActivityProfile profiles[kNumKernelClasses] = {
        /* Gemm          */ {kComputePowerActivity, 0.70, 10.0, 1200.0},
        /* Attention     */ {kAttentionPowerActivity, 0.76, 12.0, 950.0},
        /* MoeGemm       */ {kComputePowerActivity, 0.68, 10.0, 1100.0},
        /* Recompute     */ {0.90, 0.70, 10.0, 1200.0},
        /* Optimizer     */ {kMemboundPowerActivity, 0.50, 6.0, 620.0},
        /* AllReduce     */ {kCommPowerActivity, 0.88, 3.0, 140.0},
        /* AllGather     */ {0.36, 0.85, 3.0, 130.0},
        /* ReduceScatter */ {0.36, 0.85, 3.0, 130.0},
        /* AllToAll      */ {0.33, 0.80, 2.5, 110.0},
        /* SendRecv      */ {0.25, 0.45, 1.5, 60.0},
    };
    return profiles[static_cast<std::size_t>(cls)];
}

/**
 * Instantaneous device activity for one compute kernel: memory-bound
 * kernels draw less core power (the 0.55 floor is the fetch/decode
 * and HBM-side draw that persists at low SM utilization).
 */
inline double
computeActivity(const ActivityProfile& profile, double sm_util)
{
    return profile.powerActivity * (0.55 + 0.45 * sm_util);
}

/** Weight of communication activity stacked on overlapped compute. */
constexpr double kCommStackWeight = 0.55;
/** Ceiling on stacked activity (the overlap burst region). */
constexpr double kActivityCap = 1.20;

/** Compute activity overlapped with communication activity. */
inline double
stackedActivity(double compute_act, double comm_act)
{
    return std::min(compute_act + kCommStackWeight * comm_act, kActivityCap);
}

/** Board power from the clock's power scale @p clk_scale =
 *  clk^kClockPowerExp: idle + (TDP - idle) * act * clk_scale, capped at
 *  kPeakPowerCap * TDP. */
inline Watts
scaledPower(const GpuSpec& spec, double act, double clk_scale)
{
    double range = (spec.tdpWatts - spec.idleWatts).value();
    double p = spec.idleWatts.value() + range * act * clk_scale;
    return Watts(
        std::min(p, calib::kPeakPowerCap * spec.tdpWatts.value()));
}

/** Board power: idle + (TDP - idle) * act * clk^kClockPowerExp, capped
 *  at kPeakPowerCap * TDP. */
inline Watts
devicePower(const GpuSpec& spec, double act, double clk)
{
    return scaledPower(spec, act, std::pow(clk, calib::kClockPowerExp));
}

} // namespace hw
} // namespace charllm

#endif // CHARLLM_HW_ACTIVITY_PROFILE_HH
