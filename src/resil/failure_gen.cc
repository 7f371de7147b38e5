#include "resil/failure_gen.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace charllm {
namespace resil {

namespace {

/** Mean outage length of a transient link fault. */
constexpr double kLinkClearMeanSec = 1.0;

/** Exponential draw with mean @p mean; floored so a pathological
 *  u ~ 0 cannot stall schedule expansion. */
Seconds
exponential(Rng& rng, Seconds mean)
{
    double u = rng.uniform();
    return Seconds(std::max(-mean.value() * std::log(1.0 - u), 1e-9));
}

/** One splitmix64 scramble round (the same mixer `Rng` uses). */
std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Independent sub-stream for one physical component: a double
 *  scramble of (seed, kind, index). Seeding per component (instead of
 *  one shared stream consumed in order) makes every component's
 *  schedule a pure function of its own identity, so extending the
 *  horizon or enabling another failure class appends/adds events
 *  without perturbing anyone else's draws. */
Rng
componentRng(std::uint64_t seed, FailureKind kind, int index)
{
    std::uint64_t k = mix64(
        seed + 0x9e3779b97f4a7c15ULL *
                   (static_cast<std::uint64_t>(kind) + 1));
    return Rng(mix64(k + 0x9e3779b97f4a7c15ULL *
                             (static_cast<std::uint64_t>(index) + 1)));
}

void
expandComponent(Rng rng, FailureKind kind, int target, Seconds mtbf,
                Seconds clear_mean, Seconds horizon,
                std::vector<FailureEvent>& out)
{
    Seconds t = exponential(rng, mtbf);
    while (t.value() < horizon.value()) {
        FailureEvent ev;
        ev.kind = kind;
        ev.target = target;
        ev.timeSec = t.value();
        if (kind == FailureKind::LinkTransient)
            ev.clearSec = exponential(rng, clear_mean).value();
        out.push_back(ev);
        t += exponential(rng, mtbf);
    }
}

int
domainCount(int num_nodes, int nodes_per_domain)
{
    return (num_nodes + nodes_per_domain - 1) / nodes_per_domain;
}

} // namespace

double
MtbfProfile::clusterFatalMtbfSec(int num_gpus, int num_nodes) const
{
    double rate = 0.0;
    if (gpuMtbfSec > 0.0)
        rate += static_cast<double>(num_gpus) / gpuMtbfSec;
    if (nodeMtbfSec > 0.0)
        rate += static_cast<double>(num_nodes) / nodeMtbfSec;
    if (switchMtbfSec > 0.0)
        rate += static_cast<double>(domainCount(
                    num_nodes, nodesPerSwitch)) /
                switchMtbfSec;
    if (pduMtbfSec > 0.0)
        rate += static_cast<double>(domainCount(num_nodes,
                                                nodesPerPdu)) /
                pduMtbfSec;
    return rate > 0.0 ? 1.0 / rate : 0.0;
}

std::vector<FailureEvent>
FailureGenerator::generate(const MtbfProfile& profile, int num_gpus,
                           int num_nodes, Seconds horizon,
                           std::uint64_t seed)
{
    CHARLLM_ASSERT(num_gpus >= 1 && num_nodes >= 1,
                   "bad cluster shape: ", num_gpus, " gpus / ",
                   num_nodes, " nodes");
    CHARLLM_ASSERT(horizon.value() > 0.0, "non-positive failure horizon");
    std::vector<FailureEvent> events;
    if (profile.empty())
        return events;
    // Every component draws from its own (seed, kind, index)-derived
    // sub-stream: the schedule is a pure function of (profile, shape,
    // horizon, seed), raising the horizon only appends events past the
    // old horizon, and enabling one failure class never perturbs the
    // draws of another.
    if (profile.gpuMtbfSec > 0.0) {
        for (int g = 0; g < num_gpus; ++g)
            expandComponent(
                componentRng(seed, FailureKind::GpuFatal, g),
                FailureKind::GpuFatal, g, Seconds(profile.gpuMtbfSec),
                Seconds(0.0), horizon, events);
    }
    if (profile.linkMtbfSec > 0.0) {
        for (int n = 0; n < num_nodes; ++n)
            expandComponent(
                componentRng(seed, FailureKind::LinkTransient, n),
                FailureKind::LinkTransient, n,
                Seconds(profile.linkMtbfSec),
                Seconds(kLinkClearMeanSec), horizon, events);
    }
    if (profile.nodeMtbfSec > 0.0) {
        for (int n = 0; n < num_nodes; ++n)
            expandComponent(
                componentRng(seed, FailureKind::NodeFatal, n),
                FailureKind::NodeFatal, n,
                Seconds(profile.nodeMtbfSec), Seconds(0.0), horizon,
                events);
    }
    auto expandDomains = [&](FailureKind kind, double mtbf,
                             int nodes_per_domain) {
        if (mtbf <= 0.0)
            return;
        CHARLLM_ASSERT(nodes_per_domain >= 1,
                       "failure domains need >= 1 node, got ",
                       nodes_per_domain);
        std::size_t first_event = events.size();
        int domains = domainCount(num_nodes, nodes_per_domain);
        for (int d = 0; d < domains; ++d) {
            int first_node = d * nodes_per_domain;
            expandComponent(componentRng(seed, kind, d), kind,
                            first_node, Seconds(mtbf), Seconds(0.0),
                            horizon, events);
            int span = std::min(nodes_per_domain,
                                num_nodes - first_node);
            for (std::size_t e = first_event; e < events.size(); ++e)
                events[e].nodeSpan = span;
            first_event = events.size();
        }
    };
    expandDomains(FailureKind::SwitchFatal, profile.switchMtbfSec,
                  profile.nodesPerSwitch);
    expandDomains(FailureKind::PduFatal, profile.pduMtbfSec,
                  profile.nodesPerPdu);
    std::sort(events.begin(), events.end(),
              [](const FailureEvent& a, const FailureEvent& b) {
        if (a.timeSec != b.timeSec)
            return a.timeSec < b.timeSec;
        if (a.kind != b.kind)
            return a.kind < b.kind;
        return a.target < b.target;
    });
    return events;
}

} // namespace resil
} // namespace charllm
