/**
 * @file
 * Fault taxonomy for deterministic degradation injection. The paper's
 * central observation is that real clusters are heterogeneous — thermal
 * stragglers, throttled GPUs, flapping links, node power failures — so
 * the simulator models degradation as a first-class, seed-reproducible
 * input rather than assuming a healthy fleet.
 */

#ifndef CHARLLM_FAULTS_FAULT_HH
#define CHARLLM_FAULTS_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace charllm {
namespace faults {

/** Classes of injectable degradation. */
enum class FaultKind
{
    GpuSlowdown, //!< persistent straggler: device runs derated
    GpuFailStop, //!< device dies; job pays checkpoint/restart cost
    LinkDerate,  //!< link capacity reduced (congestion, cable errors)
    LinkFlap,    //!< link oscillates between healthy and derated
    HotInlet,    //!< machine-room hot spot raises one GPU's inlet air
    FanFailure,  //!< degraded airflow: higher thermal resistance
    EccStall,    //!< transient ECC-retry stalls on compute kernels
};

/** Human-readable fault kind label (stable; used in CSV output). */
inline const char*
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::GpuSlowdown: return "gpu-slowdown";
      case FaultKind::GpuFailStop: return "gpu-fail-stop";
      case FaultKind::LinkDerate: return "link-derate";
      case FaultKind::LinkFlap: return "link-flap";
      case FaultKind::HotInlet: return "hot-inlet";
      case FaultKind::FanFailure: return "fan-failure";
      case FaultKind::EccStall: return "ecc-stall";
      default: return "?";
    }
}

/**
 * One fault to inject. The meaning of @ref magnitude depends on the
 * kind:
 *  - GpuSlowdown: relative speed factor in (0, 1)
 *  - GpuFailStop: checkpoint/restart cost in seconds
 *  - LinkDerate / LinkFlap: derated capacity factor in (0, 1]
 *  - HotInlet: inlet temperature rise in degC
 *  - FanFailure: thermal-resistance multiplier (> 1)
 *  - EccStall: base stall per event in seconds (retries double it)
 */
struct FaultSpec
{
    FaultKind kind = FaultKind::GpuSlowdown;
    int target = 0;           //!< GPU id (or link id for Link* kinds)
    double startSec = 0.0;    //!< injection time (simulated seconds)
    double durationSec = 0.0; //!< active window; 0 = rest of the run
    double magnitude = 0.0;   //!< kind-specific, see above

    /** LinkFlap: mean down+up cycle length. EccStall: mean interval
     * between stall events. Ignored by other kinds. */
    double periodSec = 0.0;
    /** LinkFlap only: fraction of each cycle spent derated. */
    double dutyCycle = 0.5;
};

/**
 * Append to @p problems one line per range FaultInjector::apply requires
 * that fault @p index, @p spec, breaks on a cluster of @p num_gpus GPUs
 * and @p num_links links (net::Topology::linkCount).
 */
void addFaultProblems(std::vector<std::string>& problems, std::size_t index,
                      const FaultSpec& spec, int num_gpus, int num_links);

/**
 * A named, seeded set of faults. Two runs of the same scenario (same
 * seed) produce byte-identical schedules and event logs.
 */
struct FaultScenario
{
    std::string name;
    std::uint64_t seed = 0x5eedf001ULL;
    std::vector<FaultSpec> faults;

    bool empty() const { return faults.empty(); }
};

/** One realized fault interval (after jitter/retry expansion). */
struct FaultRecord
{
    FaultKind kind = FaultKind::GpuSlowdown;
    int target = 0;
    double startSec = 0.0;
    double endSec = 0.0; //!< end of the interval (== start for points)
    double magnitude = 0.0;
};

} // namespace faults
} // namespace charllm

#endif // CHARLLM_FAULTS_FAULT_HH
