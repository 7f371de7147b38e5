/**
 * @file
 * Phase attribution: classifies every instant of each GPU's timeline
 * into one of four training phases and integrates sampled power over
 * each, producing the per-phase time/energy breakdown the paper uses
 * to separate compute energy from exposed-communication and
 * pipeline-bubble energy.
 *
 * Classification rule, applied per device at each instant:
 *  - a compute-class kernel is running        -> Compute
 *  - else a communication kernel is running   -> ExposedComm
 *  - else any OTHER device has a kernel going -> Bubble
 *    (this device is stalled inside an active step: a pipeline
 *    bubble or straggler wait)
 *  - else                                     -> Idle
 *    (the whole cluster is quiescent: startup, teardown, restart)
 *
 * Energy integration uses the sampler's own series: sample i holds
 * power P_i and covers the interval (t_{i-1}, t_i], which is split
 * across the phases it overlaps. Every sample lands in exactly one
 * device's breakdown, so the phase energies sum to the same total as
 * integrating the raw sampler series — the report is a lossless
 * re-bucketing, not an estimate.
 */

#ifndef CHARLLM_OBS_PHASE_HH
#define CHARLLM_OBS_PHASE_HH

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "common/csv.hh"
#include "telemetry/sampler.hh"
#include "telemetry/trace.hh"

namespace charllm {
namespace obs {

/** Training-timeline phase of one GPU at one instant. */
enum class Phase
{
    Compute = 0,     //!< compute-class kernel executing
    ExposedComm = 1, //!< only communication kernels executing
    Bubble = 2,      //!< idle while another device is busy
    Idle = 3,        //!< whole cluster quiescent
};

constexpr std::size_t kNumPhases = 4;

const char* phaseName(Phase phase);

/** Time + energy attributed to one phase on one GPU. */
struct PhaseSlice
{
    double seconds = 0.0;
    double energyJ = 0.0;

    double
    avgPowerW() const
    {
        return seconds > 0.0 ? energyJ / seconds : 0.0;
    }
};

/** One GPU's full phase breakdown. */
struct GpuPhaseBreakdown
{
    int gpu = 0;
    std::array<PhaseSlice, kNumPhases> phases{};

    double totalEnergyJ() const;
};

/** Cluster-wide phase report. */
struct PhaseReport
{
    double windowStartSec = 0.0;
    double windowEndSec = 0.0;
    std::vector<GpuPhaseBreakdown> gpus;

    /** Sum of all per-GPU slices, phase by phase. */
    GpuPhaseBreakdown cluster() const;

    /** Total integrated energy across GPUs and phases. */
    double totalEnergyJ() const;

    /** One row per (gpu, phase) plus a trailing cluster row per
     *  phase: gpu, phase, seconds, energy_j, avg_power_w. */
    CsvWriter toCsv() const;

    /** {"window":{...},"gpus":[...],"cluster":{...}} */
    std::string toJson() const;
};

/**
 * Attribute phases over [window_start, window_end] (window_end < 0
 * means "to the end of the data"). @p series is indexed by GPU and
 * holds each GPU's sampler output; a GPU with kernel activity but no
 * samples gets time attribution with zero energy.
 */
PhaseReport
attributePhases(const telemetry::KernelTrace& trace,
                const std::vector<std::vector<telemetry::Sample>>& series,
                double window_start = 0.0, double window_end = -1.0);

} // namespace obs
} // namespace charllm

#endif // CHARLLM_OBS_PHASE_HH
