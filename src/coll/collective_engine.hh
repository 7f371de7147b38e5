/**
 * @file
 * Executes collective operations as sets of concurrent flows on the
 * FlowNetwork. Ring-based collectives are modelled as one steady-state
 * phase per rank carrying the algorithm's total wire volume — this
 * preserves per-link traffic, node-boundary bottlenecks, and
 * contention, while keeping the event count tractable.
 */

#ifndef CHARLLM_COLL_COLLECTIVE_ENGINE_HH
#define CHARLLM_COLL_COLLECTIVE_ENGINE_HH

#include <map>
#include <vector>

#include "coll/collective.hh"
#include "net/flow_network.hh"
#include "scale/symmetry.hh"

namespace charllm {
namespace coll {

/**
 * Collective executor. Each request is turned into flows immediately;
 * the only state carried between calls is pooled bookkeeping (flow
 * completion latches, hierarchical phase records, cached hierarchical
 * plans and scratch buffers), so a steady-state run() allocates
 * nothing.
 */
class CollectiveEngine
{
  public:
    CollectiveEngine(sim::Simulator& sim, net::FlowNetwork& network);

    /**
     * Enable rank-symmetry collapse: requests arrive with LOGICAL
     * rank ids; the engine emits flows only for instantiated
     * (replica-0) members, mapping them to physical devices, and
     * folds each ring's wrap-around hop into a pre-interned weighted
     * route on the representative's own node ports (DESIGN.md §12).
     * Must be called at setup, before any run(); the fold must
     * outlive the engine. nullptr disables.
     */
    void setFold(const scale::SymmetryFold* f);

    /**
     * Launch a collective. @p on_complete fires once, when every
     * constituent transfer has arrived. The request is only read
     * during the call.
     */
    void run(const CollectiveRequest& request, sim::EventFn on_complete);

    /**
     * Total bytes each of @p n ranks puts on the wire for a @p kind
     * collective of @p bytes (algorithm-dependent; the analytical
     * backend prices and attributes traffic with it too).
     */
    static Bytes wireBytesPerRank(CollectiveKind kind, Bytes bytes, int n);

    /**
     * Latency-bound steps of the ring algorithm for @p kind over @p n
     * ranks. AllToAll and SendRecv are not rings; they count n - 1.
     */
    static int ringSteps(CollectiveKind kind, int n);

    /** Whether a request qualifies for hierarchical execution. */
    bool shouldRunHierarchically(const CollectiveRequest& req) const;

  private:
    /** Shared completion counter for the flows of one collective (or
     *  the sub-collectives of one hierarchical phase). */
    struct Latch
    {
        int remaining = 0;
        sim::EventFn onComplete;
    };

    /** Node partition of one hierarchical group, cached by rank set. */
    struct HierPlan
    {
        bool uniform = false; //!< same member count on every node
        std::vector<std::vector<int>> intra; //!< members per node
        std::vector<std::vector<int>> inter; //!< k-th member per node
    };

    /** One in-flight hierarchical collective between phases. */
    struct HierOp
    {
        std::uint32_t plan = 0;
        CollectiveKind interKind = CollectiveKind::AllReduce;
        Bytes bytes;
        Bytes shard;
        bool chunked = true;
        int messages = 1;
        bool hasGather = true;
        sim::EventFn onComplete;
    };

    std::uint32_t openLatch(int count, sim::EventFn done);
    /** Count one arrival; the last one frees the latch and fires it. */
    void arrive(std::uint32_t latch);

    void runRing(const CollectiveRequest& request, Bytes per_rank_bytes,
                 int steps, sim::EventFn on_complete);
    void runAllToAll(const CollectiveRequest& request,
                     sim::EventFn on_complete);
    void runSendRecv(const CollectiveRequest& request,
                     sim::EventFn on_complete);

    /**
     * Hierarchical ring collective: intra-node reduce-scatter,
     * inter-node shard exchange across node peers, intra-node
     * all-gather. Phases chain through a pooled HierOp; the callback
     * fires after the last phase.
     */
    void runHierarchical(const CollectiveRequest& request,
                         sim::EventFn on_complete);
    /** Plan for the rank set in sortedScratch (built on first use). */
    std::uint32_t hierPlanFor();
    void launchPhase(const std::vector<std::vector<int>>& groups,
                     CollectiveKind kind, Bytes bytes, bool chunked,
                     int messages, sim::EventFn done);
    void hierExchange(std::uint32_t op);
    void hierGather(std::uint32_t op);
    void hierFinish(std::uint32_t op);

    sim::Simulator& sim;
    net::FlowNetwork& network;
    const scale::SymmetryFold* fold = nullptr;
    /** Per-physical-device wrap-around route (interned at setFold,
     *  so the hot path never allocates routes). */
    std::vector<const net::FlowNetwork::WeightedRoute*> wrapRoutes;

    std::vector<Latch> latches;
    std::vector<std::uint32_t> freeLatches;
    std::vector<HierOp> hierOps;
    std::vector<std::uint32_t> freeHierOps;
    std::vector<HierPlan> hierPlans;
    std::map<std::vector<int>, std::uint32_t> hierPlanIndex;

    /** @name Reused scratch (refilled, never shrunk, per call)
     * @{ */
    std::vector<int> sortedScratch;
    mutable std::vector<int> nodeScratch;
    CollectiveRequest subRequest;
    /** @} */
};

} // namespace coll
} // namespace charllm

#endif // CHARLLM_COLL_COLLECTIVE_ENGINE_HH
