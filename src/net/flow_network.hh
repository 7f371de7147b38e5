/**
 * @file
 * Flow-level network simulation with max-min fair bandwidth sharing.
 *
 * Every in-flight transfer is a flow over a fixed route of directional
 * links. Whenever the flow set changes, link rates are re-allocated by
 * progressive filling (water-filling): the most contended link fixes
 * its flows at an equal share, capacity is subtracted, and the process
 * repeats. This is what produces the paper's PCIe/NIC contention and
 * the skew between ranks that share interfaces.
 *
 * The solver is incremental. Flows live in a pooled slab (free-listed,
 * no per-flow map nodes) with a separate id-ordered index so every
 * loop visits flows in admission order — the same order the original
 * from-scratch solver used, which keeps floating-point results
 * bit-identical. Per-link flow counts are maintained persistently; a
 * flow arriving on (or departing from) links carrying no other flow
 * cannot change anyone else's allocation, so those events skip the
 * water-fill entirely. Aggregate per-(gpu, class) and per-link rates
 * are cached and rebuilt lazily: an allocation change only marks them
 * dirty, and the first telemetry query after it (gpuRate() /
 * linkUtilization()) pays one O(active flows x hops) rebuild. A run
 * with no sampler attached never rebuilds them at all.
 *
 * The water-fill runs once per simulated tick, not once per change.
 * A contended join or completion only updates the bookkeeping, marks
 * the allocation stale and makes sure one zero-delay settle event is
 * pending; that event runs the water-fill and reschedules the
 * completion event. An all-to-all burst whose members all join at
 * one tick thus costs one pass. Nothing observes the intermediate
 * rates — no bytes move until time advances, and a telemetry query
 * settles first — and the fill is from scratch over the id-ordered
 * active set, so the tick's final allocation and the completion time
 * derived from it are bitwise those of a pass per change. Derates
 * (setLinkDerate) stay eager.
 */

#ifndef CHARLLM_NET_FLOW_NETWORK_HH
#define CHARLLM_NET_FLOW_NETWORK_HH

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/logging.hh"
#include "net/topology.hh"
#include "sim/simulator.hh"

namespace charllm {
namespace net {

/**
 * Told of the bytes flows move over each GPU-owned link, as the network
 * accounts them (the engine adds them to the owning device's traffic
 * counters). A plain interface called once per hop, so it allocates
 * nothing.
 */
class TrafficObserver
{
  public:
    /** @p bytes crossed a link of class @p cls that GPU @p gpu owns. */
    virtual void onTraffic(int gpu, hw::TrafficClass cls, Bytes bytes) = 0;

  protected:
    ~TrafficObserver() = default;
};

/**
 * Event-driven flow network. Transfers complete via callback after a
 * per-message latency plus a contention-dependent serialization time.
 */
class FlowNetwork
{
  public:
    using FlowId = std::uint64_t;

    FlowNetwork(sim::Simulator& sim, const Topology& topo);

    /** Attribute moved bytes to @p observer (nullptr: nobody). It
     *  must outlive the network's transfers. */
    void
    setTrafficObserver(TrafficObserver* observer)
    {
        trafficObserver = observer;
    }

    /**
     * Start a point-to-point transfer of @p bytes from @p src to
     * @p dst. @p on_complete fires when the last byte arrives.
     * @p extra_latency adds protocol overhead (e.g. un-chunked
     * rendezvous handshakes) on top of the topology's base latency.
     * The completion is a move-only sim::EventFn: it rides in the
     * flow's pooled slot and then in the event queue, so captures up
     * to EventFn::kInlineBytes never touch the heap.
     */
    FlowId transfer(int src, int dst, Bytes bytes,
                    sim::EventFn on_complete,
                    Seconds extra_latency = Seconds(0.0));

    /**
     * An explicit route with a per-link multiplicity weight: hop i
     * counts @p weights[i] times toward contention, byte accounting,
     * and traffic attribution. Rank-symmetry collapse uses this to
     * let one representative flow stand in for the folded replicas'
     * flows on shared physical links (DESIGN.md §12).
     */
    struct WeightedRoute
    {
        std::vector<LinkId> links;
        std::vector<int> weights;
    };

    /**
     * Intern a weighted route for later transferOnRoute() calls. The
     * returned pointer is stable for the network's lifetime. Must be
     * called from setup code, never from event handlers (it
     * allocates). Fatal if @p links and @p weights differ in length
     * or any weight is < 1 — weight conservation is what keeps the
     * collapsed run equal to the full one.
     */
    const WeightedRoute* internRoute(std::vector<LinkId> links,
                                     std::vector<int> weights);

    /**
     * Start a transfer over an interned weighted route. Unlike
     * transfer(), @p latency is the FULL pre-serialization delay —
     * the caller includes the topology message latency. Zero or
     * negative @p bytes degenerates to a latency-only callback.
     */
    FlowId transferOnRoute(const WeightedRoute* route, Bytes bytes,
                           Seconds latency, sim::EventFn on_complete);

    /** Instantaneous aggregate rate seen at a GPU's ports, by class.
     *  Settles a stale allocation first. */
    BytesPerSec gpuRate(int gpu, hw::TrafficClass cls);

    /**
     * Derate a link to @p factor of its nominal capacity (fault
     * injection: congestion, cable errors, a flapping port). In-flight
     * flows are re-allocated immediately. @p factor must be in
     * (0, 1]; pass 1.0 to restore full capacity.
     */
    void setLinkDerate(LinkId id, double factor);

    /** Current derate factor of a link (1.0 = healthy). */
    double
    linkDerateFactor(LinkId id) const
    {
        CHARLLM_CHECK(id >= 0 && static_cast<std::size_t>(id) <
                                     linkDerate.size(),
                      "link id ", id, " out of range [0, ",
                      linkDerate.size(), ")");
        return linkDerate[static_cast<std::size_t>(id)];
    }

    /** Cumulative bytes carried by a link. */
    Bytes
    linkBytes(LinkId id) const
    {
        CHARLLM_CHECK(id >= 0 && static_cast<std::size_t>(id) <
                                     linkByteCount.size(),
                      "link id ", id, " out of range [0, ",
                      linkByteCount.size(), ")");
        return Bytes(linkByteCount[static_cast<std::size_t>(id)]);
    }

    /** Instantaneous utilization (0..1) of a link. Settles a stale
     *  allocation first. */
    double linkUtilization(LinkId id);

    std::size_t numActiveFlows() const { return activeOrder.size(); }
    std::uint64_t numFlowsStarted() const { return nextId - 1; }

    const Topology& topology() const { return topo; }

    /** @name Solver introspection (tests, benches)
     * @{ */
    /** Full water-fill passes executed so far. */
    std::uint64_t numFullRecomputes() const { return fullRecomputes; }
    /** Joins that skipped the water-fill (uncontended route). */
    std::uint64_t numFastJoins() const { return fastJoins; }
    /** Completion events that skipped the water-fill. */
    std::uint64_t numFastCompletions() const { return fastCompletions; }
    /** Telemetry-cache rebuilds (at most one per allocation change,
     *  and only when something queried the caches after it). */
    std::uint64_t numAggregateRebuilds() const { return aggregateRebuilds; }
    /**
     * Disable the incremental fast paths and the once-per-tick settle:
     * every change runs an eager full water-fill (the pre-incremental
     * behaviour). Used by equivalence tests to compare the two solvers
     * on identical traffic.
     */
    void setForceFullRecompute(bool force) { forceFull = force; }
    /**
     * From-scratch reference allocation over the current active set,
     * as (flow id, rate) pairs in flow-id order. Does not modify any
     * solver state; the incremental invariant is that live rates
     * always equal this.
     */
    std::vector<std::pair<FlowId, double>> referenceRates() const;
    /** @} */

  private:
    struct Flow
    {
        FlowId id = 0;
        int src = 0;
        int dst = 0;
        /** Cached at admission; points into routeCache (stable). */
        const std::vector<LinkId>* route = nullptr;
        /** Per-hop multiplicities (parallel to route) for folded
         *  flows; nullptr for ordinary unit-weight flows. */
        const std::vector<int>* weights = nullptr;
        double bytesRemaining = 0.0;
        double rate = 0.0;
        sim::EventFn onComplete;
    };

    /** Multiplicity of hop @p i of @p flow (1 for ordinary flows). */
    static int
    hopWeight(const Flow& flow, std::size_t i)
    {
        return flow.weights != nullptr ? (*flow.weights)[i] : 1;
    }

    /** Capacity a link offers the water-fill, after protocol
     *  efficiency and any fault derate. */
    double effectiveCapacity(std::size_t link) const;

    /** Route lookup memoised per (src, dst); routes are static. */
    const std::vector<LinkId>& cachedRoute(int src, int dst);

    std::uint32_t allocFlowSlot();
    void freeFlowSlot(std::uint32_t slot);

    /** Admission event: the flow enters the link graph. */
    void joinFlow(std::uint32_t slot);

    /** Advance all active flows to the current time. */
    void progress(double now);

    /** A contended change: mark the allocation stale and make sure a
     *  zero-delay settle event is pending (eager under forceFull). */
    void invalidateAllocation();

    /** Re-run max-min allocation and schedule the next completion.
     *  Clears a pending settle. */
    void recompute();

    /** Run the pending settle now (telemetry reads mid-tick). */
    void settleIfStale();

    /** Rebuild the gpuRate/linkUtilization caches if an allocation
     *  change has dirtied them since the last rebuild. */
    void rebuildAggregates();

    /** (Re)schedule the completion event for the earliest finisher. */
    void scheduleNextCompletion();

    /** Fired by the event queue when the earliest flow should finish. */
    void onCompletionEvent();

    sim::Simulator& sim;
    const Topology& topo;
    TrafficObserver* trafficObserver = nullptr;

    std::vector<Flow> flowSlab;
    std::vector<std::uint32_t> freeFlowSlots;
    /** Active slots ordered by ascending flow id: every solver loop
     *  iterates this, matching the original std::map iteration order
     *  so floating-point accumulation is bit-identical. */
    std::vector<std::uint32_t> activeOrder;
    /** Persistent per-link active-flow count (route multiplicity). */
    std::vector<int> flowsOnLink;

    double lastProgress = 0.0;
    sim::EventHandle completionEvent;
    /** Pending while the allocation is stale: the tick's one settle. */
    sim::EventHandle settleEvent;
    std::vector<double> linkByteCount;
    std::vector<double> linkDerate; //!< capacity multiplier per link
    FlowId nextId = 1;

    /** @name Telemetry caches (rebuilt on the first query after an
     *  allocation change)
     * @{ */
    std::vector<double> gpuRateCache; //!< [gpu * numClasses + cls]
    std::vector<double> linkUsedCache;
    bool aggregatesDirty = false;
    std::uint64_t aggregateRebuilds = 0;
    /** @} */

    /** @name Reused scratch (cleared, never reallocated, per event) */
    std::vector<double> remainingScratch;
    std::vector<int> flowsOnScratch;
    std::vector<sim::EventFn> completedCallbacks;
    std::vector<std::uint32_t> completedSlots;

    std::map<std::uint64_t, std::vector<LinkId>> routeCache;
    /** Interned weighted routes; deque keeps pointers stable. */
    std::deque<WeightedRoute> ownedRoutes;

    bool forceFull = false;
    std::uint64_t fullRecomputes = 0;
    std::uint64_t fastJoins = 0;
    std::uint64_t fastCompletions = 0;
};

} // namespace net
} // namespace charllm

#endif // CHARLLM_NET_FLOW_NETWORK_HH
