/**
 * @file
 * Seeded Poisson failure generator. Each component class (GPU, scale-
 * out link, node) fails independently with exponential inter-arrival
 * times drawn from its MTBF; the whole schedule is expanded up front
 * from a single seed, so a run's failure history depends only on
 * (profile, cluster shape, horizon, seed) — never on simulation
 * timing. Link faults are transient (they clear after an exponential
 * outage and are candidates for retry/backoff); GPU and node faults
 * are fatal (they require replacement + rollback).
 *
 * Beyond independent per-component draws, the generator models
 * correlated failure domains: a scale-out switch or a PDU/rack power
 * circuit serves a contiguous block of nodes, and a domain fault
 * fail-stops every GPU in the block simultaneously (FailureEvent::
 * nodeSpan carries the block width). Every component — each GPU,
 * link, node, and domain — expands from its own (seed, kind, index)-
 * derived sub-stream, so raising the horizon only appends events past
 * the old horizon and enabling one failure class never perturbs
 * another class's schedule for an existing seed.
 */

#ifndef CHARLLM_RESIL_FAILURE_GEN_HH
#define CHARLLM_RESIL_FAILURE_GEN_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/quantity.hh"

namespace charllm {
namespace resil {

enum class FailureKind
{
    GpuFatal = 0,  //!< fail-stop of one GPU (ECC, HBM, power stage)
    LinkTransient, //!< scale-out link outage; clears on its own
    NodeFatal,     //!< whole-node loss (host, PSU, cooling)
    SwitchFatal,   //!< scale-out switch: its node block fail-stops
    PduFatal,      //!< PDU/rack power circuit: its node block dies
};

/** One scheduled failure. */
struct FailureEvent
{
    FailureKind kind = FailureKind::GpuFatal;
    /** GPU id for GpuFatal; first node id for every other kind. */
    int target = 0;
    double timeSec = 0.0;
    /** LinkTransient only: outage length before the link heals. */
    double clearSec = 0.0;
    /** Fatal domain width: nodes [target, target + nodeSpan) die
     *  together. 1 for NodeFatal and every legacy kind. */
    int nodeSpan = 1;
};

/** Per-component mean time between failures; 0 disables a class. */
struct MtbfProfile
{
    double gpuMtbfSec = 0.0;       //!< per GPU
    double linkMtbfSec = 0.0;      //!< per node's scale-out NIC
    double nodeMtbfSec = 0.0;      //!< per node
    /** Correlated-domain classes: one draw per switch / PDU, failing
     *  its whole node block at once. 0 disables the class. */
    double switchMtbfSec = 0.0;    //!< per scale-out switch
    double pduMtbfSec = 0.0;       //!< per PDU / rack power circuit
    int nodesPerSwitch = 4;
    int nodesPerPdu = 8;

    bool
    empty() const
    {
        return gpuMtbfSec <= 0.0 && linkMtbfSec <= 0.0 &&
               nodeMtbfSec <= 0.0 && switchMtbfSec <= 0.0 &&
               pduMtbfSec <= 0.0;
    }

    /**
     * Cluster-level fatal MTBF (GPU, node, and correlated-domain
     * classes; transient link faults do not force a rollback, so they
     * are excluded): the aggregate failure rate of @p num_gpus GPUs,
     * @p num_nodes nodes, and the switch/PDU domains covering them.
     * Returns 0 when no fatal class is enabled.
     */
    double clusterFatalMtbfSec(int num_gpus, int num_nodes) const;
};

/** Most expected entries of one failure class's or the depot's
 *  schedule; the benches reach about 21,000, a few dozen bytes each. */
constexpr double kMaxScheduleEntries = 1e6;

/** Append to @p problems a line if @p components draws of mean
 *  @p mean_sec over @p horizon_sec pass kMaxScheduleEntries. */
void addExpansionProblems(Problems& problems, const char* name,
                          double mean_sec, int components,
                          double horizon_sec);

/** Append to @p problems each range of the horizon it breaks. */
void addHorizonProblems(Problems& problems, double horizon_sec);

/** Append to @p problems each range FailureGenerator::generate needs of
 *  @p profile on the cluster shape over @p horizon_sec, past the
 *  horizon's own. */
void addFailureProblems(Problems& problems, const MtbfProfile& profile,
                        int num_gpus, int num_nodes, double horizon_sec);

class FailureGenerator
{
  public:
    /**
     * Expand the deterministic failure schedule over [0, horizon),
     * sorted by time (ties broken by kind then target so the order is
     * total).
     */
    static std::vector<FailureEvent>
    generate(const MtbfProfile& profile, int num_gpus, int num_nodes,
             Seconds horizon, std::uint64_t seed);
};

} // namespace resil
} // namespace charllm

#endif // CHARLLM_RESIL_FAILURE_GEN_HH
