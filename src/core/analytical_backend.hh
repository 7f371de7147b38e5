/**
 * @file
 * The analytical fidelity backend: a closed-form estimator that lowers
 * the same per-rank programs as the DES path but prices them without an
 * event queue — roofline compute (hw::ComputeModel), alpha-beta
 * collectives mirroring coll::CollectiveEngine's ring/hierarchical
 * decomposition with a NIC-sharing approximation, and a steady-state
 * thermal/DVFS fixed point (hw::ThermalModel::steadyState plus the
 * real hw::DvfsGovernor). It shares every calibration constant and
 * quantity type with the DES backend; what it approximates away is
 * transient contention (max-min fair flow sharing, straggler skew,
 * thermal transients). See DESIGN.md "Fidelity backends" for the
 * tolerance contract, and bench_backend_xval for the cross-validation
 * that enforces it.
 *
 * Wherever scale::SymmetryAnalyzer proves the DP replicas identical
 * (analyzeSymmetry, the proof the DES backend's collapse uses), it
 * lowers and prices only the representative replica, tp*pp devices,
 * and replays each representative's result for every logical GPU: the
 * output is bitwise that of pricing every rank (DESIGN.md §12).
 *
 * core::validate refuses what it cannot model, loudly: a fault
 * scenario, the resilience subsystem and the telemetry sampler, all
 * transient phenomena. It produces no kernel trace or critical path
 * either; those results stay null.
 */

#ifndef CHARLLM_CORE_ANALYTICAL_BACKEND_HH
#define CHARLLM_CORE_ANALYTICAL_BACKEND_HH

#include <span>
#include <vector>

#include "core/experiment.hh"
#include "runtime/op.hh"

namespace charllm {
namespace core {

/** Closed-form estimate of one experiment (no event queue). */
class AnalyticalBackend final : public ExperimentBackend
{
  public:
    const char* name() const override { return "analytical"; }

  private:
    void prepare() override;
    void run() override;

    /** Clock-independent cost summary of one runtime::Op. */
    struct OpCost
    {
        runtime::OpType type = runtime::OpType::Compute;
        hw::KernelClass cls = hw::KernelClass::Gemm;
        bool tail = false;  //!< iteration-tail op (outside the 1F1B body)
        bool async = false; //!< overlapped collective / eager send
        /** Compute: kernel seconds at nominal clock (engine semantics:
         *  the whole kernel, memory time included, scales 1/clock). */
        double nominalSec = 0.0;
        /** Communication: wall seconds (clock-independent). */
        double commSec = 0.0;
        double smUtil = 0.0;
        double powerActivity = 0.0; //!< activity coefficient when live
        double occupancy = 0.0;
        double warpsPerSm = 0.0;
        double threadblocks = 0.0;
    };

    /** One device's summarized schedule plus traffic attribution. */
    struct DeviceSummary
    {
        std::vector<OpCost> ops;
        double scaleUpBytes = 0.0; //!< NvLink/xGMI bytes, DES-style
        double pcieBytes = 0.0;    //!< cross-node (PCIe/NIC) bytes
    };

    /** Per-device outcome of one priced iteration walk. */
    struct DeviceWalk
    {
        double bodyBusySec = 0.0;
        double tailBusySec = 0.0;
        double activitySec = 0.0;  //!< integral of power activity
        double peakActivity = 0.0;
        double occupancySec = 0.0;
        double warpSec = 0.0;
        double blockSec = 0.0;
        hw::KernelTimeBreakdown breakdown;
    };

    /** One summary per program device (physical under the fold). */
    std::vector<DeviceSummary> summarize(runtime::Program program) const;
    /** Cost of one collective over the ascending member list
     *  @p sorted. Allocation-free. */
    double collectiveSeconds(std::span<const int> sorted,
                             coll::CollectiveKind kind, Bytes bytes,
                             bool chunked, int messages,
                             bool topology_aware) const;
    double hopBandwidth(int src, int dst, int local_members) const;
    /** Ring traffic of logical @p device, a member of @p sorted. */
    void attributeRing(DeviceSummary& dev, std::span<const int> sorted,
                       int device, Bytes wire) const;
    DeviceWalk walkDevice(const DeviceSummary& dev, double clock) const;
    double iterationSeconds(const std::vector<DeviceWalk>& walks) const;

    /** Summaries for iterations [0, warmup+measured); non-MoE models
     *  are deterministic across iterations and share one entry. */
    std::vector<std::vector<DeviceSummary>> iterationSummaries;
    std::vector<int> summaryOfIteration;
    double bubbleFraction = 0.0;
    /** Set when the DP replicas are proven identical: summaries and
     *  the fixed point then cover fold.physWorld() devices. */
    bool folded = false;
    scale::SymmetryFold fold;
};

} // namespace core
} // namespace charllm

#endif // CHARLLM_CORE_ANALYTICAL_BACKEND_HH
