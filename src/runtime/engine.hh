/**
 * @file
 * The training engine: executes per-rank operator programs on the
 * simulated hardware (compute timing with DVFS feedback, collectives
 * and P2P over the contended flow network, overlap semantics), and
 * records iteration timings.
 */

#ifndef CHARLLM_RUNTIME_ENGINE_HH
#define CHARLLM_RUNTIME_ENGINE_HH

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "coll/collective_engine.hh"
#include "hw/platform.hh"
#include "net/flow_network.hh"
#include "obs/critical_path.hh"
#include "runtime/program_builder.hh"
#include "scale/symmetry.hh"

namespace charllm {
namespace runtime {

/** Measurement controls. */
struct EngineOptions
{
    int warmupIterations = 2;  //!< discarded (thermal settling)
    int measuredIterations = 3;
};

/** Append to @p problems each iteration count TrainingEngine rejects.
 *  Defined in program_builder.cc: in engine.cc its message code would
 *  cost the event-queue calls there their inlining. */
void addIterationProblems(Problems& problems, int warmup_iterations,
                          int measured_iterations);

/** One executed training iteration (attempt) on the simulated clock. */
struct IterationSpan
{
    int index = 0;       //!< 0-based, counting warmup iterations
    bool warmup = false; //!< true for thermal-settling iterations
    double startSec = 0.0;
    double endSec = 0.0;
    /** Re-execution of an iteration that had already committed before
     *  a rollback (lost work being replayed). */
    bool replay = false;
    /** Attempt torn down mid-flight by abortIteration (never
     *  committed; its duration is doomed work). */
    bool aborted = false;
};

/**
 * Hook for a resilience subsystem (src/resil): the engine reports
 * every committed iteration and the controller may charge a global
 * pause (e.g. a synchronous checkpoint write) between iterations.
 * The pause window is cluster-quiescent — no kernels run — and is
 * excluded from per-iteration durations, so it surfaces as a
 * non-useful goodput bucket rather than inflated iteration times.
 */
class ResilienceController
{
  public:
    virtual ~ResilienceController() = default;

    /**
     * Iteration @p index (0-based, warmup included) committed over
     * [@p start_s, @p end_s). Returns the boundary pause in seconds
     * before the next iteration may start; must be 0 when @p last.
     */
    virtual double onIterationCommitted(int index, double start_s,
                                        double end_s, bool last) = 0;
};

/**
 * Executes ProgramBuilder schedules. One engine instance runs one
 * experiment: warmup + measured iterations, chained inside a single
 * simulator run so thermal state persists across iterations.
 */
class TrainingEngine : private hw::ClockObserver,
                       private net::TrafficObserver
{
  public:
    /** Kernel-trace callback: (device, class, name, start_s, dur_s). */
    using TraceSink = std::function<void(int, hw::KernelClass,
                                         const char*, double, double)>;

    TrainingEngine(hw::Platform& platform, net::FlowNetwork& network,
                   coll::CollectiveEngine& collectives,
                   const ProgramBuilder& builder,
                   const EngineOptions& options);
    /** The platform and the network hold this engine's address. */
    TrainingEngine(const TrainingEngine&) = delete;
    TrainingEngine& operator=(const TrainingEngine&) = delete;

    void setTraceSink(TraceSink sink) { trace = std::move(sink); }

    /**
     * Enable rank-symmetry collapse: the builder emits programs for
     * physical (replica-0) devices only, groups keep logical ids, and
     * collectives launch once every instantiated member has arrived.
     * Must match the fold passed to the builder and the collective
     * engine; set before run(). nullptr disables.
     */
    void setFold(const scale::SymmetryFold* f) { fold = f; }

    /** Attach a resilience controller (nullptr = none). Must be set
     *  before run(). The controller must outlive the engine run. */
    void setResilienceController(ResilienceController* controller)
    {
        resil = controller;
    }

    /**
     * Attach a causal critical-path recorder (nullptr = disabled; the
     * default). The recorder is passive — it never schedules events or
     * touches simulation state, so attaching one leaves results
     * byte-identical — and every hook below is guarded by a null
     * check, so the disabled path costs one branch per op completion.
     * Must be set before run() and outlive it.
     */
    void setCriticalPath(obs::CriticalPathRecorder* recorder)
    {
        critpath = recorder;
    }

    /**
     * Run all iterations to completion. The platform must have been
     * start()ed by the caller. Fatal on schedule deadlock.
     */
    void run();

    /** Wall-clock (simulated) seconds of each measured iteration. */
    const std::vector<double>& iterationSeconds() const
    {
        return measured;
    }

    double avgIterationSeconds() const;

    /** Simulated time at which measurement began (post warmup). */
    double measureStartSeconds() const { return measureStart; }

    /** Every completed iteration (warmup included), in order. Feeds
     *  the unified trace's per-iteration marker track. */
    const std::vector<IterationSpan>& iterationSpans() const
    {
        return iterSpans;
    }

    /** @name Fault-injection hooks (driven by faults::FaultInjector)
     * @{ */

    /**
     * Stall device @p dev for @p stall simulated time (e.g. an
     * ECC-retry storm). An in-flight compute kernel is extended in
     * place — its reported duration grows, exactly as real transient
     * stalls inflate kernel times; with no compute in flight the
     * stall is charged to the device's next compute kernel.
     */
    void injectTransientStall(int dev, Seconds stall);

    /**
     * Model a fail-stop + checkpoint/restart: the next iteration
     * starts only after @p restart_cost of global pause (checkpoint
     * reload, process re-init, lost progress). Overlapping fail-stops
     * share one restart window — the pending debt is the max of the
     * individual costs, not their sum.
     */
    void notifyFailStop(Seconds restart_cost);

    /** Pending fail-stop restart debt (consumed at the next iteration
     *  start). Exposed for fault-accounting tests. */
    double pendingRestartSeconds() const { return pendingRestartSec; }

    /** @} */

    /** @name Recovery hooks (driven by resil::RecoveryManager)
     * @{ */

    /**
     * Tear down the in-flight iteration (if any) after a fatal fault:
     * cancel or truncate every outstanding compute kernel, collective,
     * send, and blocked receive (partial kernels emit truncated trace
     * spans so the doomed attempt stays visible), record an aborted
     * IterationSpan, roll the committed-iteration counter back by
     * @p rollback steps (to the last completed checkpoint), and
     * restart execution at simulated time @p resume_at_s. Replayed
     * iterations re-commit and overwrite their recorded durations.
     */
    void abortIteration(int rollback, double resume_at_s);

    /** Iterations committed so far (monotone except across aborts). */
    int committedIterations() const { return iteration; }

    /** A collective is currently in flight. resil::RecoveryManager
     *  samples this at fault time: a fatal landing inside a live
     *  collective tears shared gradient state and forces a rollback,
     *  while a boundary fault lets an elastic shrink keep all
     *  committed work. */
    bool collectiveInFlight() const { return !openInstances.empty(); }

    /** @} */

  private:
    struct RankState
    {
        std::size_t pc = 0;
        int outstandingAsync = 0;
        bool draining = false;
        bool done = false;
    };

    struct InFlightCompute
    {
        double remainingNominal = 0.0; //!< seconds at nominal clock
        double rate = 1.0;             //!< current relative clock
        double lastUpdate = 0.0;
        double startTime = 0.0;
        std::uint64_t gpuToken = 0;
        hw::KernelClass cls;
        const char* name = "";
        sim::EventHandle completion;
        // Critical-path annotations, maintained only when a recorder
        // is attached: the causal head at issue, plus the clock /
        // throttle-reason state of the current residency window so
        // throttle-induced elongation can be folded per DVFS reason
        // at every retime point.
        int causeRec = -1;
        double clockRelSnap = 1.0;
        hw::ThrottleReason reasonSnap = hw::ThrottleReason::None;
        double slow[obs::kNumThrottleSlots] = {0.0, 0.0, 0.0};
    };

    struct CollectiveInstance
    {
        std::vector<std::pair<int, double>> arrivals; //!< (dev, time)
        std::vector<std::pair<int, std::uint64_t>> tokens;
        std::vector<int> causes; //!< per-member head at join
                                 //!< (critical path only)
        bool async = false;
        hw::KernelClass cls = hw::KernelClass::AllReduce;
        const char* name = "";
        // Launch metadata stashed at join time so a deferred launch
        // (collapsed async collectives) no longer needs the Op.
        coll::CollectiveKind ckind = coll::CollectiveKind::AllReduce;
        int groupId = -1;
        Bytes bytes;
        bool chunked = true;
        int messages = 1;
        bool topologyAware = false;
    };

    struct Channel
    {
        std::uint64_t sendSeq = 0;
        std::uint64_t recvSeq = 0;
        // Sends whose data arrived before their receive was posted:
        // (sequence number, arrival time).
        std::vector<std::pair<std::uint64_t, double>> ready;
        // Blocked receiver (seq, arrival time, gpu token).
        std::optional<std::tuple<std::uint64_t, double, std::uint64_t>>
            waiting;
    };

    /** A send whose network flow is still in flight. It carries
     *  everything the completion needs (and what aborts need to close
     *  the sender-side kernel span), so the completion callback
     *  captures only {engine, id, epoch} and stays inline in
     *  sim::EventFn. */
    struct OutstandingSend
    {
        std::uint64_t id = 0;
        int dev = 0;
        int dst = 0;
        std::uint64_t channel = 0; //!< channelKey(dev, dst)
        std::uint64_t seq = 0;     //!< sequence number on the channel
        double startSec = 0.0;
        std::uint64_t token = 0;
        const char* name = "";
        int cause = -1; //!< critical-path head at issue
    };

    void startIteration();
    void finishIteration();
    void advance(int dev);
    void startCompute(int dev, const Op& op);
    void finishCompute(int dev);
    /** hw::ClockObserver: re-time @p dev's running compute. */
    void onClockChange(int dev) override { retimeCompute(dev); }
    /** net::TrafficObserver: count the bytes on @p gpu's link. */
    void
    onTraffic(int gpu, hw::TrafficClass cls, Bytes bytes) override
    {
        plat.gpu(gpu).addTraffic(cls, bytes);
    }

    /**
     * Effective progress rate of compute on a device: relative clock,
     * divided by the contention penalty while communication kernels
     * share the device (cc-overlap / eager P2P).
     */
    double computeRate(int dev) const;

    /** Re-time the in-flight compute op after a rate change. */
    void retimeCompute(int dev);

    /** Fold the elapsed clock-residency window into the in-flight
     *  op's per-reason throttle-elongation tally and re-snapshot the
     *  device's clock/reason. Critical-path bookkeeping only; must be
     *  called before lastUpdate moves. */
    void foldThrottle(InFlightCompute& fl, int dev, double now);

    /** True when @p groupId has members on more than one node
     *  (logical ids; layout is node-uniform, so this matches the
     *  physical link tier under symmetry collapse too). */
    bool groupSpansNodes(int groupId) const;

    /**
     * Schedule a compute-completion event for @p dev. Under
     * partitioned execution compute events live in the device's node
     * domain; unpartitioned simulators fall back to the global queue.
     */
    sim::EventHandle scheduleComputeDone(int dev, double delay_sec);

    /** Move @p fl's completion to its remaining work at its rate from
     *  now (a retime or a stall). */
    void moveComputeDone(InFlightCompute& fl);

    void joinCollective(int dev, const Op& op);

    /** The open instance for @p key, opened from the pool if new. */
    CollectiveInstance& openInstance(std::uint64_t key);

    /** Return a finished instance's record to the pool. */
    void releaseInstance(std::uint32_t slot);

    /** Launch the fully-arrived collective instance @p key. */
    void launchCollective(std::uint64_t key);

    void onCollectiveDone(std::uint64_t key);
    void issueSend(int dev, const Op& op);
    void onSendDone(std::uint64_t send_id);
    bool tryRecv(int dev, const Op& op);

    /** The channel for (src << 32 | dst), created on first use. */
    Channel& channel(std::uint64_t key);

    /** Empty every channel, keeping the entries and their buffers. */
    void resetChannels();

    void rankDone(int dev);
    void emitTrace(int dev, hw::KernelClass cls, const char* name,
                   double start, double dur);

    hw::Platform& plat;
    net::FlowNetwork& network;
    coll::CollectiveEngine& coll;
    const ProgramBuilder& builder;
    EngineOptions opts;
    TraceSink trace;

    Program program;
    /** Placement version program was built for; it is rebuilt per
     *  iteration only when the builder's output varies by iteration. */
    std::optional<std::uint64_t> builtPlacement;
    std::vector<RankState> ranks;
    std::vector<std::optional<InFlightCompute>> inFlight;
    // Collective instances keyed by (groupId << 32 | seq). Records live
    // in a pool (a deque: references survive its growth, and finished
    // records keep their vectors' capacity); the open ones are indexed
    // by key in ascending order.
    std::deque<CollectiveInstance> instancePool;
    std::vector<std::uint32_t> freeInstances;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> openInstances;
    std::vector<std::uint64_t> groupSeq; //!< [dev * numGroups + group]
    std::size_t numGroups = 0;
    /** P2P channels keyed by (src << 32 | dst), ascending. Entries
     *  persist across iterations (reset, never erased). */
    std::vector<std::pair<std::uint64_t, Channel>> channels;
    std::vector<OutstandingSend> sends; //!< ascending id
    std::uint64_t sendCounter = 0;
    /** Reused for every collective and send launch. */
    coll::CollectiveRequest request;

    int iteration = 0;
    int totalIterations = 0;
    int ranksRemaining = 0;
    std::vector<double> pendingStall;  //!< per-device deferred stalls
    double pendingRestartSec = 0.0;    //!< fail-stop restart debt
    double iterStart = 0.0;
    double measureStart = 0.0;
    std::vector<double> measured;
    std::vector<IterationSpan> iterSpans;
    bool finished = false;

    ResilienceController* resil = nullptr;
    const scale::SymmetryFold* fold = nullptr;
    obs::CriticalPathRecorder* critpath = nullptr;
    /** Abort epoch: network/collective completions cannot be cancelled
     *  (their flows run to completion), so every engine-side async
     *  callback captures the epoch at issue time and drops itself when
     *  an abort has bumped it since. */
    std::uint64_t epoch = 0;
    /** High-water mark of committed iterations: re-commits below it
     *  are rollback replay, not fresh progress. */
    int maxCommitted = 0;
    bool iterationActive = false;
    /** Duration of each committed iteration, by index; replays
     *  overwrite, and measured[] is rebuilt from this at finish. */
    std::vector<double> committedDurations;
    sim::EventHandle pendingStart; //!< boundary-pause / resume event
};

} // namespace runtime
} // namespace charllm

#endif // CHARLLM_RUNTIME_ENGINE_HH
