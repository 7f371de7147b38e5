#include "coll/collective_engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "net/calibration.hh"

namespace charllm {
namespace coll {

CollectiveEngine::CollectiveEngine(sim::Simulator& simulator,
                                   net::FlowNetwork& netw)
    : sim(simulator), network(netw)
{
}

void
CollectiveEngine::setFold(const scale::SymmetryFold* f)
{
    fold = f;
    wrapRoutes.clear();
    if (fold == nullptr)
        return;
    // Intern every representative's wrap-around route now: the ring
    // hop from a replica-0 member to its (ghost) replica-1 successor
    // leaves via the member's own node ports and — by replica
    // symmetry — re-enters through ports with the identical
    // contention pattern, so we fold it onto the member's own
    // pcie/nic pair. DP peers are node-aligned (the analyzer refuses
    // otherwise), so the wrap hop is always the 4-link inter-node
    // shape with unit weights.
    const auto& topo = network.topology();
    wrapRoutes.reserve(static_cast<std::size_t>(fold->physWorld()));
    for (int v = 0; v < fold->physWorld(); ++v) {
        int node = topo.nodeOf(v);
        wrapRoutes.push_back(network.internRoute(
            {topo.pcieOutLink(v), topo.nicOutLink(node),
             topo.nicInLink(node), topo.pcieInLink(v)},
            {1, 1, 1, 1}));
    }
}

Bytes
CollectiveEngine::wireBytesPerRank(CollectiveKind kind, Bytes bytes, int n)
{
    if (n <= 1)
        return Bytes(0.0);
    auto ranks = static_cast<double>(n);
    switch (kind) {
      case CollectiveKind::AllReduce:
        return 2.0 * bytes * (ranks - 1.0) / ranks;
      case CollectiveKind::AllGather:
      case CollectiveKind::ReduceScatter:
      case CollectiveKind::AllToAll:
        return bytes * (ranks - 1.0) / ranks;
      case CollectiveKind::SendRecv:
        return bytes;
      case CollectiveKind::Barrier:
        return Bytes(0.0);
    }
    return Bytes(0.0);
}

int
CollectiveEngine::ringSteps(CollectiveKind kind, int n)
{
    switch (kind) {
      case CollectiveKind::AllReduce:
      case CollectiveKind::Barrier:
        return 2 * (n - 1);
      default:
        return n - 1;
    }
}

std::uint32_t
CollectiveEngine::openLatch(int count, sim::EventFn done)
{
    std::uint32_t id;
    if (!freeLatches.empty()) {
        id = freeLatches.back();
        freeLatches.pop_back();
    } else {
        id = static_cast<std::uint32_t>(latches.size());
        latches.emplace_back();
    }
    latches[id].remaining = count;
    latches[id].onComplete = std::move(done);
    return id;
}

void
CollectiveEngine::arrive(std::uint32_t latch)
{
    Latch& l = latches[latch];
    if (--l.remaining != 0)
        return;
    // Free the slot before firing: the callback may launch the next
    // collective, which can reuse it.
    sim::EventFn done = std::move(l.onComplete);
    freeLatches.push_back(latch);
    done();
}

void
CollectiveEngine::run(const CollectiveRequest& request,
                      sim::EventFn on_complete)
{
    auto n = static_cast<int>(request.ranks.size());
    CHARLLM_ASSERT(n >= 1, "collective with no ranks");
    CHARLLM_ASSERT(request.bytes.value() >= 0.0,
                   "negative collective payload");
    if (!on_complete)
        on_complete = [] {};

    if (n == 1) {
        // Degenerate single-rank group: completes after launch latency.
        sim.schedule(sim::toTicks(net::calib::kIntraNodeLatencySec),
                     std::move(on_complete));
        return;
    }

    if (shouldRunHierarchically(request)) {
        runHierarchical(request, std::move(on_complete));
        return;
    }

    switch (request.kind) {
      case CollectiveKind::AllReduce:
      case CollectiveKind::AllGather:
      case CollectiveKind::ReduceScatter:
      case CollectiveKind::Barrier:
        runRing(request, wireBytesPerRank(request.kind, request.bytes, n),
                ringSteps(request.kind, n), std::move(on_complete));
        break;
      case CollectiveKind::AllToAll:
        runAllToAll(request, std::move(on_complete));
        break;
      case CollectiveKind::SendRecv:
        runSendRecv(request, std::move(on_complete));
        break;
    }
}

void
CollectiveEngine::runRing(const CollectiveRequest& request,
                          Bytes per_rank_bytes, int steps,
                          sim::EventFn on_complete)
{
    // Ring order follows sorted device ids, which matches how NCCL
    // builds rings over consecutive ranks: node-boundary hops are the
    // slow links and become the collective's bottleneck.
    std::vector<int>& ring = sortedScratch;
    ring.assign(request.ranks.begin(), request.ranks.end());
    std::sort(ring.begin(), ring.end());
    auto n = static_cast<int>(ring.size());

    const auto& topo = network.topology();
    if (fold != nullptr) {
        // Collapsed mode: ranks are logical. Only flows whose source
        // is instantiated are emitted; the latch counts those. A flow
        // to a ghost successor folds onto the source representative's
        // pre-interned wrap route with the caller-visible semantics
        // (latency, bytes, completion) unchanged.
        int inst = 0;
        for (int r : ring) {
            if (fold->instantiated(r))
                ++inst;
        }
        CHARLLM_ASSERT(inst >= 1, "ring with no instantiated member");
        std::uint32_t latch = openLatch(inst, std::move(on_complete));
        for (int i = 0; i < n; ++i) {
            int src = ring[static_cast<std::size_t>(i)];
            if (!fold->instantiated(src))
                continue;
            int dst = ring[static_cast<std::size_t>((i + 1) % n)];
            int launches = std::max(request.messages, 1);
            Seconds extra = (steps * launches - 1) *
                            topo.messageLatency(src, dst);
            if (!request.chunked)
                extra += Seconds(net::calib::kUnchunkedHandshakeSec *
                                 launches);
            if (fold->instantiated(dst)) {
                network.transfer(fold->repOf(src), fold->repOf(dst),
                                 per_rank_bytes,
                                 [this, latch] { arrive(latch); }, extra);
            } else {
                network.transferOnRoute(
                    wrapRoutes[static_cast<std::size_t>(
                        fold->repOf(src))],
                    per_rank_bytes,
                    extra + topo.messageLatency(src, dst),
                    [this, latch] { arrive(latch); });
            }
        }
        return;
    }
    std::uint32_t latch = openLatch(n, std::move(on_complete));
    for (int i = 0; i < n; ++i) {
        int src = ring[static_cast<std::size_t>(i)];
        int dst = ring[static_cast<std::size_t>((i + 1) % n)];
        // The flow's own start latency covers the first step; the
        // remaining algorithm steps (times back-to-back launches) add
        // pipeline latency on top.
        int launches = std::max(request.messages, 1);
        Seconds extra = (steps * launches - 1) *
                        topo.messageLatency(src, dst);
        if (!request.chunked)
            extra += Seconds(net::calib::kUnchunkedHandshakeSec *
                             launches);
        network.transfer(src, dst, per_rank_bytes,
                         [this, latch] { arrive(latch); }, extra);
    }
}

void
CollectiveEngine::runAllToAll(const CollectiveRequest& request,
                              sim::EventFn on_complete)
{
    // AllToAll only arises from MoE dispatch, which the symmetry
    // analyzer refuses — collapsed runs can never reach this path.
    CHARLLM_ASSERT(fold == nullptr,
                   "AllToAll under rank-symmetry collapse");
    auto n = static_cast<int>(request.ranks.size());
    Bytes per_pair = request.bytes / static_cast<double>(n);
    std::uint32_t latch = openLatch(n * (n - 1), std::move(on_complete));

    const auto& topo = network.topology();
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            if (i == j)
                continue;
            int src = request.ranks[static_cast<std::size_t>(i)];
            int dst = request.ranks[static_cast<std::size_t>(j)];
            int launches = std::max(request.messages, 1);
            Seconds extra = (launches - 1) *
                            topo.messageLatency(src, dst);
            if (!request.chunked)
                extra += Seconds(net::calib::kUnchunkedHandshakeSec *
                                 launches);
            network.transfer(src, dst, per_pair,
                             [this, latch] { arrive(latch); }, extra);
        }
    }
}

bool
CollectiveEngine::shouldRunHierarchically(
    const CollectiveRequest& req) const
{
    if (!req.topologyAware)
        return false;
    if (req.kind != CollectiveKind::AllReduce &&
        req.kind != CollectiveKind::AllGather &&
        req.kind != CollectiveKind::ReduceScatter)
        return false;
    // Needs multiple members on at least one node AND more than one
    // node; otherwise the flat ring is already optimal.
    const auto& topo = network.topology();
    nodeScratch.clear();
    for (int r : req.ranks)
        nodeScratch.push_back(topo.nodeOf(r));
    std::sort(nodeScratch.begin(), nodeScratch.end());
    if (nodeScratch.front() == nodeScratch.back())
        return false;
    return std::adjacent_find(nodeScratch.begin(), nodeScratch.end()) !=
           nodeScratch.end();
}

std::uint32_t
CollectiveEngine::hierPlanFor()
{
    auto it = hierPlanIndex.find(sortedScratch);
    if (it != hierPlanIndex.end())
        return it->second;
    // First sight of this rank set: partition the (sorted) group by
    // node. Members per node must be uniform for shard-aligned
    // inter-node rings; run() falls back to a flat ring otherwise.
    const auto& topo = network.topology();
    std::map<int, std::vector<int>> by_node;
    for (int r : sortedScratch)
        by_node[topo.nodeOf(r)].push_back(r);
    HierPlan plan;
    std::size_t local = by_node.begin()->second.size();
    plan.uniform = std::all_of(by_node.begin(), by_node.end(),
                               [local](const auto& entry) {
        return entry.second.size() == local;
    });
    if (plan.uniform) {
        for (const auto& [node, members] : by_node)
            plan.intra.push_back(members);
        // Inter-node rings: the k-th member of every node exchanges
        // the k-th shard.
        for (std::size_t k = 0; k < local; ++k) {
            std::vector<int> ring;
            for (const auto& [node, members] : by_node)
                ring.push_back(members[k]);
            plan.inter.push_back(std::move(ring));
        }
    }
    auto id = static_cast<std::uint32_t>(hierPlans.size());
    hierPlans.push_back(std::move(plan));
    hierPlanIndex.emplace(sortedScratch, id);
    return id;
}

void
CollectiveEngine::runHierarchical(const CollectiveRequest& request,
                                  sim::EventFn on_complete)
{
    sortedScratch.assign(request.ranks.begin(), request.ranks.end());
    std::sort(sortedScratch.begin(), sortedScratch.end());
    std::uint32_t plan_id = hierPlanFor();
    const HierPlan& plan = hierPlans[plan_id];
    if (!plan.uniform) {
        subRequest = request;
        subRequest.topologyAware = false;
        run(subRequest, std::move(on_complete));
        return;
    }

    std::uint32_t id;
    if (!freeHierOps.empty()) {
        id = freeHierOps.back();
        freeHierOps.pop_back();
    } else {
        id = static_cast<std::uint32_t>(hierOps.size());
        hierOps.emplace_back();
    }
    HierOp& op = hierOps[id];
    op.plan = plan_id;
    op.interKind = request.kind;
    op.bytes = request.bytes;
    op.shard = request.bytes /
               static_cast<double>(plan.intra.front().size());
    op.chunked = request.chunked;
    op.messages = request.messages;
    // AllGather skips the leading reduce-scatter; ReduceScatter skips
    // the trailing all-gather.
    op.hasGather = request.kind != CollectiveKind::ReduceScatter;
    op.onComplete = std::move(on_complete);
    if (request.kind != CollectiveKind::AllGather) {
        launchPhase(plan.intra, CollectiveKind::ReduceScatter,
                    request.bytes, request.chunked, request.messages,
                    [this, id] { hierExchange(id); });
    } else {
        hierExchange(id);
    }
}

void
CollectiveEngine::launchPhase(const std::vector<std::vector<int>>& groups,
                              CollectiveKind kind, Bytes bytes,
                              bool chunked, int messages,
                              sim::EventFn done)
{
    std::uint32_t latch =
        openLatch(static_cast<int>(groups.size()), std::move(done));
    for (const auto& g : groups) {
        subRequest.kind = kind;
        subRequest.ranks.assign(g.begin(), g.end());
        subRequest.bytes = bytes;
        subRequest.chunked = chunked;
        subRequest.messages = messages;
        subRequest.topologyAware = false;
        run(subRequest, [this, latch] { arrive(latch); });
    }
}

void
CollectiveEngine::hierExchange(std::uint32_t id)
{
    const HierOp& op = hierOps[id];
    const HierPlan& plan = hierPlans[op.plan];
    if (plan.intra.size() < 2) {
        hierGather(id);
        return;
    }
    launchPhase(plan.inter, op.interKind, op.shard, op.chunked,
                op.messages, [this, id] { hierGather(id); });
}

void
CollectiveEngine::hierGather(std::uint32_t id)
{
    const HierOp& op = hierOps[id];
    if (!op.hasGather) {
        hierFinish(id);
        return;
    }
    launchPhase(hierPlans[op.plan].intra, CollectiveKind::AllGather,
                op.bytes, op.chunked, op.messages,
                [this, id] { hierFinish(id); });
}

void
CollectiveEngine::hierFinish(std::uint32_t id)
{
    sim::EventFn done = std::move(hierOps[id].onComplete);
    freeHierOps.push_back(id);
    done();
}

void
CollectiveEngine::runSendRecv(const CollectiveRequest& request,
                              sim::EventFn on_complete)
{
    CHARLLM_ASSERT(request.ranks.size() == 2,
                   "SendRecv needs exactly {src, dst}");
    Seconds extra = request.chunked
                        ? Seconds(0.0)
                        : Seconds(net::calib::kUnchunkedHandshakeSec);
    int src = request.ranks[0];
    int dst = request.ranks[1];
    if (fold != nullptr) {
        // P2P under collapse is always between instantiated devices
        // (PP peers live in the same replica); callers pass physical
        // ids directly, so no mapping is needed here.
        CHARLLM_ASSERT(src < fold->physWorld() &&
                           dst < fold->physWorld(),
                       "collapsed SendRecv with non-physical ranks");
    }
    network.transfer(src, dst, request.bytes, std::move(on_complete),
                     extra);
}

} // namespace coll
} // namespace charllm
