/**
 * @file
 * Hardware-model calibration constants, collected in one place so the
 * relationship between the simulator and the paper's measured shapes is
 * auditable. None of these are per-experiment knobs: a single set is
 * used for every table and figure.
 */

#ifndef CHARLLM_HW_CALIBRATION_HH
#define CHARLLM_HW_CALIBRATION_HH

namespace charllm {
namespace hw {
namespace calib {

// ---- compute efficiency (MFU) ----------------------------------------------
// Achieved fraction of peak FLOPs grows with per-kernel work and
// saturates: eff = maxMfu * work / (work + kneeFlops). The knee is set
// so a TP8-sliced GPT-3 layer at microbatch 1 lands near 55% of maxMfu
// and microbatch 4 near 85%, matching the measured benefit of larger
// microbatches on compute-bound kernels.
constexpr double kMaxMfu = 0.60;
constexpr double kMfuKneeFlops = 0.8e12;
// Attention kernels run at lower arithmetic efficiency than GEMMs.
constexpr double kAttentionEffScale = 0.75;
// Per-kernel fixed launch/dispatch overhead (seconds).
constexpr double kKernelOverheadSec = 6.0e-6;
// Compute slowdown while communication kernels overlap on the device
// (SM/memory-subsystem contention; Sec. 4.3 of the paper).
constexpr double kOverlapComputePenalty = 1.18;
// Communication slowdown while compute overlaps (shared copy engines).
constexpr double kOverlapCommPenalty = 1.10;

// ---- power ------------------------------------------------------------------
// Fraction of the idle..TDP dynamic range drawn by a fully-busy device
// running each activity class at nominal clock.
constexpr double kComputePowerActivity = 0.95;
constexpr double kAttentionPowerActivity = 0.85;
constexpr double kCommPowerActivity = 0.38;
constexpr double kMemboundPowerActivity = 0.62;
// Dynamic power scales ~ f * V^2 and V tracks f: P_dyn ~ clk^kClockPowerExp.
constexpr double kClockPowerExp = 2.4;
// Overlapped compute+comm can exceed the single-activity envelope
// (bursty peak excursions, Sec. 5); capped at this multiple of TDP.
constexpr double kPeakPowerCap = 1.12;

// ---- thermal ----------------------------------------------------------------
// Junction-to-inlet thermal resistance (degC per watt). Steady state at
// 650 W over ambient-ish inlet: ~ +45 degC.
constexpr double kThermalResistance = 0.068;
// Thermal time constant tau = R * C (seconds). Real heatsink+loop time
// constants are tens of seconds; we use a shorter tau so iterations
// reach thermal steady state within the simulated warmup window the
// same way the paper discards 10 warmup iterations.
constexpr double kThermalTauSec = 6.0;
// Machine-room inlet air temperature.
constexpr double kRoomTempC = 27.0;
// Front-to-back preheat: downstream inlet rise per upstream watt.
// Sized so a fully-loaded front row raises rear-GPU inlets by
// ~15-20 degC, reproducing the paper's rear-vs-front differential
// (up to 27% in extreme cases) and rear-GPU throttling (Fig. 17).
constexpr double kPreheatCoeffCPerW = 0.022;
// Fraction of preheat that also reaches same-row neighbours (mixing).
constexpr double kRowMixing = 0.15;
// MI250: thermal coupling between the two GCDs of one package
// (degC per degC of temperature difference, per second). Weak enough
// to preserve the measured 5-10 degC intra-package skew.
constexpr double kPackageCouplingPerSec = 0.08;
// MI250 OAM row spacing gives milder serial preheat than HGX.
constexpr double kMi250PreheatScale = 0.75;

// ---- DVFS governor ----------------------------------------------------------
// Relative clock step per governor action.
constexpr double kClockStepRel = 0.045;
// Hysteresis below the throttle threshold before stepping back up.
constexpr double kThermalHysteresisC = 3.0;
// Governor evaluation period (seconds of simulated time).
constexpr double kGovernorPeriodSec = 2.0e-3;
// Throttle ratio counts time below this fraction of nominal clock.
constexpr double kThrottleClockThresholdRel = 0.99;

// ---- faults -----------------------------------------------------------------
// Effective clock of a fail-stopped device until its replacement
// arrives (the paper's power-fault incident: >4x slower). Shared by
// the fault-scenario injector and the resilience recovery pipeline.
constexpr double kFailStopDerate = 0.02;

} // namespace calib
} // namespace hw
} // namespace charllm

#endif // CHARLLM_HW_CALIBRATION_HH
