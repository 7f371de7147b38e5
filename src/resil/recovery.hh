/**
 * @file
 * The recovery state machine. A RecoveryManager owns the failure
 * schedule, the checkpoint cadence, and the goodput ledger for one
 * run:
 *
 *   healthy --fault--> degraded --detect--> { transient: retry with
 *   exponential backoff until the link clears (no rollback) or the
 *   budget is exhausted (escalate to fatal) | fatal, pool has spares:
 *   acquire a replacement, restore the last completed checkpoint,
 *   roll the engine back, replay the lost iterations | fatal, pool
 *   dry: policy choice — StallReboot (reboot-length repair window) or
 *   ElasticShrink (drop the dead replica's DP group and keep training
 *   at reduced width; rollback only if the failure landed mid-
 *   collective) } --resume--> healthy | shrunk
 *
 * A shrunk world grows back at the next iteration boundary after the
 * spare-pool replenish schedule delivers enough units to repair the
 * oldest dead replica (FIFO), paying a reconfiguration pause
 * (quiesce + group re-init + state sync) that the goodput ledger
 * books as Reconfig; the degraded interval in between is booked as
 * Degraded, weighted by the world's capacity factor.
 *
 * Detection is never instantaneous: GPU and link faults surface after
 * an NCCL-watchdog-style collective timeout, node faults after N
 * missed heartbeats. Every decision the manager makes is a pure
 * function of the seeded failure schedule and the simulated clock, so
 * runs are byte-deterministic.
 */

#ifndef CHARLLM_RESIL_RECOVERY_HH
#define CHARLLM_RESIL_RECOVERY_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "hw/platform.hh"
#include "net/flow_network.hh"
#include "parallel/elastic_world.hh"
#include "parallel/rank_mapper.hh"
#include "resil/checkpoint.hh"
#include "resil/failure_gen.hh"
#include "resil/goodput.hh"
#include "runtime/engine.hh"
#include "sim/simulator.hh"

namespace charllm {
namespace resil {

// ---- recovery-pipeline constants ---------------------------------------
// One set serves every run (DESIGN.md §8 tabulates them).

/** NCCL-watchdog-style collective timeout: a dead GPU or link is
 *  noticed when its collective fails to complete in time. */
constexpr double kCollectiveTimeoutSec = 0.5;
/** A node is declared dead after kHeartbeatMisses missed heartbeats,
 *  one every kHeartbeatPeriodSec. */
constexpr double kHeartbeatPeriodSec = 0.5;
constexpr int kHeartbeatMisses = 3;
/** Retry budget for a transient link fault; each attempt waits an
 *  exponential backoff, capped so a long budget cannot overflow into
 *  absurd escalation delays. */
constexpr int kRetryMaxAttempts = 4;
constexpr double kRetryInitialBackoffSec = 0.25;
constexpr double kRetryBackoffMultiplier = 2.0;
constexpr double kRetryMaxBackoffSec = 30.0;
/** Attach latency of one warm-spare replacement. */
constexpr double kSpareAcquireSec = 2.0;
/** Repair window when the pool is dry under StallReboot (or when an
 *  elastic shrink cannot apply, e.g. the last replica died). */
constexpr double kRebootSec = 60.0;
/** One elastic reconfiguration (shrink or grow): drain and park the
 *  survivors, then re-form the DP communicators. */
constexpr double kElasticQuiesceSec = 0.2;
constexpr double kGroupReinitSec = 1.0;
/** Residual capacity of a transiently faulted scale-out link. */
constexpr double kLinkFaultDerate = 0.05;

/** Backoff before 0-based retry attempt @p attempt (closed form,
 *  clamped to kRetryMaxBackoffSec). */
inline Seconds
retryBackoff(int attempt)
{
    double b = kRetryInitialBackoffSec *
               std::pow(kRetryBackoffMultiplier,
                        static_cast<double>(attempt));
    return Seconds(std::min(b, kRetryMaxBackoffSec));
}

/**
 * Finite warm-spare pool. capacity units are on the shelf at t=0; a
 * fatal fault consumes one unit per lost node (a single-GPU fault
 * still consumes one — the whole sled is swapped). When replenishMean
 * is positive, the depot restocks the shelf toward capacity on a
 * seeded exponential schedule expanded over the run horizon (a
 * delivery to a full shelf is wasted), so pool economics are a pure
 * function of (config, horizon, seed).
 */
struct SparePool
{
    int capacity = 1;
    Seconds replenishMean{0.0}; //!< mean inter-arrival; 0 = never

    /** Deterministic depot-arrival times over [0, horizon). */
    std::vector<double> replenishSchedule(Seconds horizon,
                                          std::uint64_t seed) const;
};

/** What to do when a fatal fault finds the spare pool dry. */
enum class DryPoolPolicy
{
    StallReboot = 0, //!< whole-cluster repair window (reboot)
    ElasticShrink,   //!< drop the dead DP replicas, keep training
};

/** Batch policy while an elastic shrink has the world degraded. */
struct ElasticPolicy
{
    /** Spread the full global batch over the survivors while
     *  degraded (more microbatches per replica) instead of letting
     *  the effective batch shrink with the world. */
    bool rebalance = false;
};

/** Recovery-pipeline knobs. */
struct RecoveryConfig
{
    /** Finite warm-spare pool; when dry, dryPolicy decides. */
    SparePool spares;
    DryPoolPolicy dryPolicy = DryPoolPolicy::StallReboot;
    ElasticPolicy elastic;
    /** Re-map a dead GPU's ranks to a same-node peer on recovery
     *  (parallel::failoverPeer; requires attachMapper). */
    bool elasticRemap = false;
};

/** Everything core::Experiment needs to arm resilience for a run. */
struct ResilienceConfig
{
    bool enabled = false;
    std::uint64_t seed = 0x5eed0fa1u;
    /** Failure-schedule horizon; must cover the simulated run
     *  (RecoveryManager::finalize exits with a message otherwise: a
     *  shorter horizon would silently under-count late failures). */
    double horizonSec = 3600.0;
    MtbfProfile mtbf;
    CheckpointPolicy checkpoint;
    RecoveryConfig recovery;
};

/** Append to @p problems each range RecoveryManager needs of its
 *  checkpoint cadence and @p config, past the horizon's own. */
void addRecoveryProblems(Problems& problems, double interval_sec,
                         double quiesce_sec, const RecoveryConfig& config,
                         double horizon_sec);

/** Append to @p problems a line if a checkpoint started at the horizon
 *  cannot commit within the event clock. */
void addCheckpointClockProblems(Problems& problems,
                                const CheckpointModel& ckpt, bool async,
                                double quiesce_sec, double horizon_sec);

/**
 * Drives one engine run. Construct after the TrainingEngine (the
 * constructor attaches itself as the engine's ResilienceController)
 * and before platform.start(); call finalize() after engine.run().
 */
class RecoveryManager final : public runtime::ResilienceController
{
  public:
    RecoveryManager(sim::Simulator& simulator, hw::Platform& platform,
                    net::FlowNetwork& network,
                    runtime::TrainingEngine& engine,
                    const CheckpointModel& checkpoint_model,
                    Seconds checkpoint_interval, bool async_checkpoint,
                    Seconds quiesce, const RecoveryConfig& config,
                    std::vector<FailureEvent> schedule,
                    Seconds horizon, std::uint64_t seed);

    RecoveryManager(const RecoveryManager&) = delete;
    RecoveryManager& operator=(const RecoveryManager&) = delete;

    /** Enable elastic re-map (cfg.elasticRemap) onto @p mapper. */
    void attachMapper(parallel::RankMapper& mapper);

    /** Arm DP shrink/grow (cfg.dryPolicy == ElasticShrink): @p world
     *  is the liveness mask the ProgramBuilder also reads, @p mapper
     *  resolves devices to DP replicas. Call before engine.run(). */
    void attachElastic(parallel::RankMapper& mapper,
                       parallel::ElasticWorld& world);

    /** runtime::ResilienceController: checkpoint cadence + run end. */
    double onIterationCommitted(int index, double start_s,
                                double end_s, bool last) override;

    /**
     * Classify the whole run; call once, after engine.run(). @p series
     * may be empty (energy buckets stay zero). Asserts conservation.
     */
    GoodputReport
    finalize(const std::vector<std::vector<telemetry::Sample>>& series)
        const;

    const ResilienceStats& stats() const { return runStats; }
    const std::vector<FailureEvent>& schedule() const { return plan; }
    double checkpointIntervalSec() const { return ckptIntervalSec; }
    double wallEndSec() const { return wallEnd; }

  private:
    struct RetrySession
    {
        net::LinkId link = -1;
        int node = -1;
        double failSec = 0.0;
        double clearAtSec = 0.0;
        double detectSec = 0.0;
        int attempt = 0;
        bool active = false;
    };

    /** A DP replica removed from the world, waiting for spares. */
    struct DeadReplica
    {
        int dpIdx = -1;
        int units = 0; //!< spare units needed to repair it
        std::vector<int> gpus;
        bool repairing = false; //!< spares committed, attach pending
        bool ready = false;     //!< repaired; grows at next boundary
    };

    void armNextFailure();
    void onFailure(std::size_t index);
    void onFatalGpus(double fail_s, std::vector<int> gpus,
                     double detect_s, bool mid_collective);
    void onTransientLink(const FailureEvent& ev);
    void retryAttempt(std::size_t session, double attempt_s);
    void beginRollback(double fail_s, double detect_s,
                       std::vector<int> gpus, net::LinkId link,
                       double replacement_sec);
    /** Elastic shrink: drop the dead replicas, pay the reconfig
     *  pause, roll back only when the fault hit a live collective. */
    void beginShrink(double fail_s, double detect_s,
                     std::vector<int> gpus, bool mid_collective);
    /** Grow every ready replica back in at an iteration boundary;
     *  returns the reconfiguration pause. */
    double beginGrow(double end_s);
    /** Commit free spare units to dead replicas, oldest first. */
    void tryScheduleRepairs(double now_s);
    void armNextReplenish();
    /** A fatal landing inside an open recovery window: fold it into
     *  an open shrink when possible, else the window covers it. */
    void absorbFatal(const std::vector<int>& gpus);
    int dpIdxOfGpu(int gpu) const;
    /** Distinct DP replicas (not yet dead) that @p gpus belong to. */
    std::vector<int> replicasOf(const std::vector<int>& gpus) const;
    /** Spare units a fatal loss consumes: one per distinct node. */
    int unitsFor(const std::vector<int>& gpus) const;
    /** True when every @p gpus member sits in an already-dead
     *  replica (the fault cannot hurt the shrunk world further). */
    bool allInDeadReplicas(const std::vector<int>& gpus) const;
    int activeGpuCount() const;
    /** Close every open retry session into the repair window ending
     *  at @p ready_s (their links heal with the replacement). */
    void closeSessions(double fail_s, double ready_s);
    /** Begin a checkpoint at an iteration boundary; returns the
     *  boundary pause (full write when sync, quiesce when async). */
    double startCheckpointPause(int covered_step, double now_s);
    sim::EventHandle scheduleAt(double when_s, sim::EventFn fn);
    void shutdown(double end_s);

    sim::Simulator& sim;
    hw::Platform& plat;
    net::FlowNetwork& network;
    runtime::TrainingEngine& engine;
    parallel::RankMapper* mapper = nullptr;
    parallel::ElasticWorld* eworld = nullptr;

    CheckpointModel ckpt;
    double ckptIntervalSec;
    bool ckptAsync;
    double quiesceSec;
    RecoveryConfig cfg;
    std::vector<FailureEvent> plan;
    double horizonSec;
    std::uint64_t scheduleSeed;

    GoodputLedger ledger;
    ResilienceStats runStats;
    std::vector<RetrySession> sessions;

    int sparesFree = 0;
    std::vector<double> replenishPlan;
    std::size_t nextReplenish = 0;
    std::vector<DeadReplica> deadReplicas;
    /** An elastic shrink's reconfig window is open: further fatal
     *  faults fold into it (more replicas die, no extra pause). */
    bool shrinkWindowOpen = false;

    std::size_t nextFailure = 0;
    sim::EventHandle armedFailure;
    /** All other outstanding timers (detections, retries, restores,
     *  checkpoint completions); cancelled wholesale at run end so the
     *  simulator drains immediately after the last commit. */
    std::vector<sim::EventHandle> timers;
    sim::EventHandle ckptComplete;
    bool ckptWritePending = false; //!< a write is in flight

    int lastCkptStep = 0;      //!< iterations covered by a completed ckpt
    double lastCkptRefSec = 0.0; //!< cadence reference point
    bool recovering = false;
    double resumeAtSec = 0.0;
    bool runDone = false;
    double wallEnd = 0.0;
};

} // namespace resil
} // namespace charllm

#endif // CHARLLM_RESIL_RECOVERY_HH
