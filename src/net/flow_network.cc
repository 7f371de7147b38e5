#include "net/flow_network.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "hw/gpu.hh"
#include "net/calibration.hh"

namespace charllm {
namespace net {

namespace {
constexpr double kEpsBytes = 0.5;
} // namespace

FlowNetwork::FlowNetwork(sim::Simulator& simulator, const Topology& topology)
    : sim(simulator), topo(topology),
      flowsOnLink(topology.links().size(), 0),
      linkByteCount(topology.links().size(), 0.0),
      linkDerate(topology.links().size(), 1.0),
      gpuRateCache(static_cast<std::size_t>(topology.numGpus()) *
                       hw::kNumTrafficClasses,
                   0.0),
      linkUsedCache(topology.links().size(), 0.0)
{
}

double
FlowNetwork::effectiveCapacity(std::size_t link) const
{
    return topo.link(static_cast<LinkId>(link)).capacity.value() *
           calib::kProtocolEfficiency * linkDerate[link];
}

const std::vector<LinkId>&
FlowNetwork::cachedRoute(int src, int dst)
{
    std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
         << 32) |
        static_cast<std::uint32_t>(dst);
    auto it = routeCache.find(key);
    if (it == routeCache.end())
        it = routeCache.emplace(key, topo.route(src, dst)).first;
    return it->second;
}

std::uint32_t
FlowNetwork::allocFlowSlot()
{
    if (!freeFlowSlots.empty()) {
        std::uint32_t slot = freeFlowSlots.back();
        freeFlowSlots.pop_back();
        return slot;
    }
    flowSlab.emplace_back();
    return static_cast<std::uint32_t>(flowSlab.size() - 1);
}

void
FlowNetwork::freeFlowSlot(std::uint32_t slot)
{
    Flow& flow = flowSlab[slot];
    flow.route = nullptr;
    flow.weights = nullptr;
    flow.onComplete.reset();
    freeFlowSlots.push_back(slot);
}

const FlowNetwork::WeightedRoute*
FlowNetwork::internRoute(std::vector<LinkId> links,
                         std::vector<int> weights)
{
    CHARLLM_ASSERT(links.size() == weights.size(),
                   "weighted route: ", links.size(), " links vs ",
                   weights.size(), " weights");
    for (int w : weights)
        CHARLLM_ASSERT(w >= 1,
                       "weighted route: weight ", w,
                       " violates weight conservation");
    ownedRoutes.push_back(
        WeightedRoute{std::move(links), std::move(weights)});
    return &ownedRoutes.back();
}

FlowNetwork::FlowId
FlowNetwork::transferOnRoute(const WeightedRoute* route, Bytes bytes,
                             Seconds latency, sim::EventFn on_complete)
{
    double byte_count = bytes.value();
    CHARLLM_ASSERT(byte_count >= 0.0, "negative transfer size");
    CHARLLM_ASSERT(route != nullptr, "null weighted route");
    FlowId id = nextId++;
    if (byte_count <= 0.0) {
        sim.schedule(sim::toTicks(latency.value()), std::move(on_complete));
        return id;
    }
    std::uint32_t slot = allocFlowSlot();
    Flow& flow = flowSlab[slot];
    flow.id = id;
    flow.src = -1;
    flow.dst = -1;
    flow.route = &route->links;
    flow.weights = &route->weights;
    flow.bytesRemaining = byte_count;
    flow.rate = 0.0;
    flow.onComplete = std::move(on_complete);
    sim.schedule(sim::toTicks(latency.value()),
                 [this, slot] { joinFlow(slot); });
    return id;
}

void
FlowNetwork::setLinkDerate(LinkId id, double factor)
{
    CHARLLM_ASSERT(id >= 0 && static_cast<std::size_t>(id) <
                                  linkDerate.size(),
                   "link id ", id, " out of range [0, ",
                   linkDerate.size(), ")");
    CHARLLM_ASSERT(factor > 0.0 && factor <= 1.0,
                   "link derate factor must be in (0, 1]: ", factor);
    progress(sim.nowSeconds());
    linkDerate[static_cast<std::size_t>(id)] = factor;
    recompute();
}

FlowNetwork::FlowId
FlowNetwork::transfer(int src, int dst, Bytes bytes,
                      sim::EventFn on_complete, Seconds extra_latency)
{
    double byte_count = bytes.value();
    CHARLLM_ASSERT(byte_count >= 0.0, "negative transfer size");
    FlowId id = nextId++;
    double latency = extra_latency.value();

    if (src == dst) {
        // Degenerate local copy: never enters the link graph.
        double duration = latency +
                          byte_count / calib::kLocalCopyBandwidth;
        sim.schedule(sim::toTicks(duration), std::move(on_complete));
        return id;
    }

    latency += topo.messageLatency(src, dst).value();
    if (byte_count <= 0.0) {
        sim.schedule(sim::toTicks(latency), std::move(on_complete));
        return id;
    }

    // Park the flow in its pooled slot now; the join event only needs
    // to carry {this, slot}, so the scheduling capture stays inline.
    const std::vector<LinkId>& route = cachedRoute(src, dst);
    std::uint32_t slot = allocFlowSlot();
    Flow& flow = flowSlab[slot];
    flow.id = id;
    flow.src = src;
    flow.dst = dst;
    flow.route = &route;
    flow.weights = nullptr;
    flow.bytesRemaining = byte_count;
    flow.rate = 0.0;
    flow.onComplete = std::move(on_complete);

    // The flow joins the network after its launch/transport latency.
    sim.schedule(sim::toTicks(latency),
                 [this, slot] { joinFlow(slot); });
    return id;
}

void
FlowNetwork::joinFlow(std::uint32_t slot)
{
    progress(sim.nowSeconds());
    Flow& flow = flowSlab[slot];

    // Keep the active index sorted by flow id. Admission latency
    // varies per route, so joins can arrive out of id order.
    auto pos = std::lower_bound(
        activeOrder.begin(), activeOrder.end(), flow.id,
        [this](std::uint32_t s, FlowId id) {
            return flowSlab[s].id < id;
        });
    activeOrder.insert(pos, slot);

    // A flow whose links carry no other traffic takes the residual
    // capacity of its own bottleneck and cannot perturb anyone else's
    // allocation — skip the water-fill. A hop weight above 1 means
    // the flow contends with its own folded images, so it never
    // qualifies.
    bool uncontended = !forceFull;
    for (std::size_t i = 0; i < flow.route->size(); ++i) {
        LinkId l = (*flow.route)[i];
        if (flowsOnLink[static_cast<std::size_t>(l)] != 0 ||
            hopWeight(flow, i) > 1) {
            uncontended = false;
            break;
        }
    }
    for (std::size_t i = 0; i < flow.route->size(); ++i) {
        LinkId l = (*flow.route)[i];
        flowsOnLink[static_cast<std::size_t>(l)] += hopWeight(flow, i);
    }

    if (uncontended) {
        double rate = std::numeric_limits<double>::infinity();
        for (LinkId l : *flow.route) {
            rate = std::min(
                rate, effectiveCapacity(static_cast<std::size_t>(l)));
        }
        flow.rate = rate;
        ++fastJoins;
        aggregatesDirty = true;
        scheduleNextCompletion();
    } else {
        invalidateAllocation();
    }
}

void
FlowNetwork::progress(double now)
{
    double dt = now - lastProgress;
    if (dt <= 0.0) {
        lastProgress = std::max(lastProgress, now);
        return;
    }
    CHARLLM_ASSERT(!settleEvent.pending(),
                   "flows advanced over an unsettled allocation");
    for (std::uint32_t slot : activeOrder) {
        Flow& flow = flowSlab[slot];
        double moved = std::min(flow.rate * dt, flow.bytesRemaining);
        if (moved <= 0.0)
            continue;
        flow.bytesRemaining -= moved;
        for (std::size_t i = 0; i < flow.route->size(); ++i) {
            LinkId l = (*flow.route)[i];
            const LinkSpec& spec = topo.link(l);
            // Weighted hops account once per folded image — repeated
            // adds, not a multiply, so the float sums match the full
            // run's per-replica accumulation bitwise.
            for (int w = hopWeight(flow, i); w > 0; --w) {
                linkByteCount[static_cast<std::size_t>(l)] += moved;
                if (spec.ownerGpu >= 0 && trafficObserver)
                    trafficObserver->onTraffic(spec.ownerGpu, spec.cls,
                                               Bytes(moved));
            }
        }
    }
    lastProgress = now;
}

void
FlowNetwork::invalidateAllocation()
{
    if (forceFull) {
        recompute();
        return;
    }
    // Nothing reads the intermediate rates of a tick: progress() moves
    // no bytes until time advances. Settle once, after the tick's last
    // change, from the final active set.
    completionEvent.cancel();
    if (!settleEvent.pending())
        settleEvent = sim.schedule(0, [this] { recompute(); });
}

void
FlowNetwork::recompute()
{
    // Max-min fair allocation by progressive filling. Scratch vectors
    // are members: sized once, reused every pass.
    std::size_t num_links = topo.links().size();
    remainingScratch.resize(num_links);
    for (std::size_t l = 0; l < num_links; ++l)
        remainingScratch[l] = effectiveCapacity(l);
    flowsOnScratch.assign(flowsOnLink.begin(), flowsOnLink.end());
    for (std::uint32_t slot : activeOrder)
        flowSlab[slot].rate = -1.0; // unfixed marker

    std::size_t unfixed = activeOrder.size();
    while (unfixed > 0) {
        // Find the bottleneck link: minimal fair share.
        double best_share = std::numeric_limits<double>::infinity();
        for (std::size_t l = 0; l < num_links; ++l) {
            if (flowsOnScratch[l] > 0) {
                double share = remainingScratch[l] /
                               static_cast<double>(flowsOnScratch[l]);
                best_share = std::min(best_share, share);
            }
        }
        CHARLLM_ASSERT(std::isfinite(best_share),
                       "unfixed flow crosses no contended link");
        // Fix every unfixed flow whose bottleneck this is. One pass:
        // fix flows crossing any link at the minimal share.
        std::size_t fixed_this_round = 0;
        for (std::uint32_t slot : activeOrder) {
            Flow& flow = flowSlab[slot];
            if (flow.rate >= 0.0)
                continue;
            bool at_bottleneck = false;
            for (LinkId l : *flow.route) {
                auto li = static_cast<std::size_t>(l);
                double share = remainingScratch[li] /
                               static_cast<double>(flowsOnScratch[li]);
                if (share <= best_share * (1.0 + 1e-9)) {
                    at_bottleneck = true;
                    break;
                }
            }
            if (!at_bottleneck)
                continue;
            flow.rate = best_share;
            ++fixed_this_round;
            for (std::size_t ri = 0; ri < flow.route->size(); ++ri) {
                auto li =
                    static_cast<std::size_t>((*flow.route)[ri]);
                for (int w = hopWeight(flow, ri); w > 0; --w) {
                    remainingScratch[li] -= best_share;
                    remainingScratch[li] =
                        std::max(remainingScratch[li], 0.0);
                    --flowsOnScratch[li];
                }
            }
        }
        CHARLLM_ASSERT(fixed_this_round > 0,
                       "max-min allocation made no progress");
        unfixed -= fixed_this_round;
    }

    ++fullRecomputes;
    settleEvent.cancel();
    aggregatesDirty = true;
    scheduleNextCompletion();
}

std::vector<std::pair<FlowNetwork::FlowId, double>>
FlowNetwork::referenceRates() const
{
    // Textbook from-scratch water-fill over the current active set,
    // touching no solver state. The incremental solver's invariant is
    // that live rates always match this exactly.
    std::size_t num_links = topo.links().size();
    std::vector<double> remaining(num_links);
    std::vector<int> flows_on(num_links, 0);
    for (std::size_t l = 0; l < num_links; ++l)
        remaining[l] = effectiveCapacity(l);
    std::vector<std::pair<FlowId, double>> rates;
    rates.reserve(activeOrder.size());
    for (std::uint32_t slot : activeOrder) {
        const Flow& flow = flowSlab[slot];
        rates.emplace_back(flow.id, -1.0);
        for (std::size_t i = 0; i < flow.route->size(); ++i) {
            flows_on[static_cast<std::size_t>((*flow.route)[i])] +=
                hopWeight(flow, i);
        }
    }

    std::size_t unfixed = rates.size();
    while (unfixed > 0) {
        double best_share = std::numeric_limits<double>::infinity();
        for (std::size_t l = 0; l < num_links; ++l) {
            if (flows_on[l] > 0) {
                double share = remaining[l] /
                               static_cast<double>(flows_on[l]);
                best_share = std::min(best_share, share);
            }
        }
        CHARLLM_ASSERT(std::isfinite(best_share),
                       "unfixed flow crosses no contended link");
        std::size_t fixed_this_round = 0;
        for (std::size_t i = 0; i < activeOrder.size(); ++i) {
            if (rates[i].second >= 0.0)
                continue;
            const Flow& flow = flowSlab[activeOrder[i]];
            bool at_bottleneck = false;
            for (LinkId l : *flow.route) {
                auto li = static_cast<std::size_t>(l);
                double share = remaining[li] /
                               static_cast<double>(flows_on[li]);
                if (share <= best_share * (1.0 + 1e-9)) {
                    at_bottleneck = true;
                    break;
                }
            }
            if (!at_bottleneck)
                continue;
            rates[i].second = best_share;
            ++fixed_this_round;
            for (std::size_t ri = 0; ri < flow.route->size(); ++ri) {
                auto li =
                    static_cast<std::size_t>((*flow.route)[ri]);
                for (int w = hopWeight(flow, ri); w > 0; --w) {
                    remaining[li] -= best_share;
                    remaining[li] = std::max(remaining[li], 0.0);
                    --flows_on[li];
                }
            }
        }
        CHARLLM_ASSERT(fixed_this_round > 0,
                       "max-min allocation made no progress");
        unfixed -= fixed_this_round;
    }
    return rates;
}

void
FlowNetwork::rebuildAggregates()
{
    if (!aggregatesDirty)
        return;
    aggregatesDirty = false;
    ++aggregateRebuilds;
    std::fill(gpuRateCache.begin(), gpuRateCache.end(), 0.0);
    std::fill(linkUsedCache.begin(), linkUsedCache.end(), 0.0);
    for (std::uint32_t slot : activeOrder) {
        const Flow& flow = flowSlab[slot];
        double rate = std::max(flow.rate, 0.0);
        const std::vector<LinkId>& route = *flow.route;
        for (std::size_t i = 0; i < route.size(); ++i) {
            LinkId l = route[i];
            const LinkSpec& spec = topo.link(l);
            if (flow.weights != nullptr) {
                // Folded flows stand in for one full-run flow per hop
                // occurrence, so every occurrence contributes — the
                // first-match dedup below models a single flow
                // touching a port twice, which does not apply here.
                for (int w = (*flow.weights)[i]; w > 0; --w) {
                    linkUsedCache[static_cast<std::size_t>(l)] += rate;
                    if (spec.ownerGpu >= 0) {
                        gpuRateCache
                            [static_cast<std::size_t>(spec.ownerGpu) *
                                 hw::kNumTrafficClasses +
                             static_cast<std::size_t>(spec.cls)] +=
                            rate;
                    }
                }
                continue;
            }
            linkUsedCache[static_cast<std::size_t>(l)] += rate;
            if (spec.ownerGpu < 0)
                continue;
            // Each flow counts once per (gpu, class): only the first
            // route link with a given owner/class pair contributes,
            // mirroring the pre-cache per-query scan.
            bool first_match = true;
            for (std::size_t j = 0; j < i; ++j) {
                const LinkSpec& prev = topo.link(route[j]);
                if (prev.ownerGpu == spec.ownerGpu &&
                    prev.cls == spec.cls) {
                    first_match = false;
                    break;
                }
            }
            if (first_match) {
                gpuRateCache[static_cast<std::size_t>(spec.ownerGpu) *
                                 hw::kNumTrafficClasses +
                             static_cast<std::size_t>(spec.cls)] += rate;
            }
        }
    }
}

void
FlowNetwork::scheduleNextCompletion()
{
    completionEvent.cancel();
    // A pending settle schedules it from the tick's final rates.
    if (activeOrder.empty() || settleEvent.pending())
        return;
    double earliest = std::numeric_limits<double>::infinity();
    for (std::uint32_t slot : activeOrder) {
        const Flow& flow = flowSlab[slot];
        if (flow.rate > 0.0) {
            earliest = std::min(earliest,
                                flow.bytesRemaining / flow.rate);
        }
    }
    CHARLLM_ASSERT(std::isfinite(earliest), "active flow with zero rate");
    // Round up a tick so the flow is guaranteed drained at the event.
    sim::Tick when = sim.now() + sim::toTicks(earliest) + 1;
    completionEvent = sim.scheduleAt(when, [this] {
        onCompletionEvent();
    });
}

void
FlowNetwork::onCompletionEvent()
{
    progress(sim.nowSeconds());
    // Member scratch: cleared each event, capacity retained.
    completedCallbacks.clear();
    completedSlots.clear();
    auto keep = activeOrder.begin();
    for (std::uint32_t slot : activeOrder) {
        Flow& flow = flowSlab[slot];
        if (flow.bytesRemaining <= kEpsBytes) {
            completedCallbacks.push_back(std::move(flow.onComplete));
            completedSlots.push_back(slot);
            for (std::size_t i = 0; i < flow.route->size(); ++i) {
                flowsOnLink[static_cast<std::size_t>(
                    (*flow.route)[i])] -= hopWeight(flow, i);
            }
        } else {
            *keep++ = slot;
        }
    }
    activeOrder.erase(keep, activeOrder.end());

    // If every departed flow leaves its links idle, the survivors'
    // water-fill is unchanged — skip it.
    bool uncontended = !forceFull;
    for (std::uint32_t slot : completedSlots) {
        for (LinkId l : *flowSlab[slot].route) {
            if (flowsOnLink[static_cast<std::size_t>(l)] != 0) {
                uncontended = false;
                break;
            }
        }
        if (!uncontended)
            break;
    }
    for (std::uint32_t slot : completedSlots)
        freeFlowSlot(slot);

    if (uncontended) {
        if (!completedSlots.empty())
            ++fastCompletions;
        aggregatesDirty = true;
        scheduleNextCompletion();
    } else {
        invalidateAllocation();
    }
    // Run completions after the bookkeeping is consistent (the rates
    // may await this tick's settle); callbacks may start new transfers
    // re-entrantly.
    for (auto& cb : completedCallbacks)
        cb();
}

void
FlowNetwork::settleIfStale()
{
    if (settleEvent.pending())
        recompute();
}

BytesPerSec
FlowNetwork::gpuRate(int gpu, hw::TrafficClass cls)
{
    std::size_t idx = static_cast<std::size_t>(gpu) *
                          hw::kNumTrafficClasses +
                      static_cast<std::size_t>(cls);
    if (gpu < 0 || idx >= gpuRateCache.size())
        return BytesPerSec(0.0);
    settleIfStale();
    rebuildAggregates();
    return BytesPerSec(gpuRateCache[idx]);
}

double
FlowNetwork::linkUtilization(LinkId id)
{
    CHARLLM_CHECK(id >= 0 && static_cast<std::size_t>(id) <
                                 topo.links().size(),
                  "link id ", id, " out of range [0, ",
                  topo.links().size(), ")");
    settleIfStale();
    rebuildAggregates();
    double used = linkUsedCache[static_cast<std::size_t>(id)];
    double capacity = topo.link(id).capacity.value();
    return capacity > 0.0 ? used / capacity : 0.0;
}

} // namespace net
} // namespace charllm
