#include "resil/failure_gen.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/event_queue.hh"

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

void
addExpansionProblems(Problems& problems, const char* name, double mean_sec,
                     int components, double horizon_sec)
{
    double entries = horizon_sec / mean_sec * components;
    require(problems,
            !(mean_sec > 0.0) || !std::isfinite(horizon_sec) ||
                entries <= kMaxScheduleEntries,
            name, " (", mean_sec, " s) over resilience.horizonSec (",
            horizon_sec, " s) expands to ~", entries,
            " schedule entries, over the cap of ", kMaxScheduleEntries);
}

void
addHorizonProblems(Problems& problems, double horizon_sec)
{
    require(problems, horizon_sec > 0.0,
            "resilience.horizonSec must be positive (got ", horizon_sec,
            ")");
    require(problems, !std::isinf(horizon_sec),
            "resilience.horizonSec must be finite (got ", horizon_sec, ")");
    require(problems,
            !(horizon_sec > 0.0) || std::isinf(horizon_sec) ||
                sim::fitsTick(horizon_sec),
            "resilience.horizonSec (", horizon_sec,
            " s) does not fit the event clock (1.8e10 s)");
}

void
addFailureProblems(Problems& problems, const MtbfProfile& profile,
                   int num_gpus, int num_nodes, double horizon_sec)
{
    require(problems, num_gpus >= 1 && num_nodes >= 1,
            "a failure schedule needs >= 1 GPU and node (got ", num_gpus,
            " GPUs, ", num_nodes, " nodes)");
    const std::pair<const char*, double> mtbfs[] = {
        {"mtbf.gpuMtbfSec", profile.gpuMtbfSec},
        {"mtbf.linkMtbfSec", profile.linkMtbfSec},
        {"mtbf.nodeMtbfSec", profile.nodeMtbfSec},
        {"mtbf.switchMtbfSec", profile.switchMtbfSec},
        {"mtbf.pduMtbfSec", profile.pduMtbfSec},
    };
    // NaN passes every "<= 0 disables" test downstream.
    for (const auto& [name, mtbf] : mtbfs)
        require(problems, !std::isnan(mtbf), name, " must not be NaN");
    require(problems,
            (profile.switchMtbfSec <= 0.0 || profile.nodesPerSwitch >= 1) &&
                (profile.pduMtbfSec <= 0.0 || profile.nodesPerPdu >= 1),
            "mtbf failure domains need >= 1 node");
    // About horizon / mean entries per component covered.
    auto domains = [num_nodes](int per_domain) {
        return per_domain >= 1 ? domainCount(num_nodes, per_domain) : 0;
    };
    const int components[] = {num_gpus, num_nodes, num_nodes,
                              domains(profile.nodesPerSwitch),
                              domains(profile.nodesPerPdu)};
    for (std::size_t i = 0; i < std::size(mtbfs); ++i)
        addExpansionProblems(problems, mtbfs[i].first, mtbfs[i].second,
                             components[i], horizon_sec);
}

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
    Problems problems;
    addHorizonProblems(problems, horizon.value());
    addFailureProblems(problems, profile, num_gpus, num_nodes,
                       horizon.value());
    CHARLLM_ASSERT(problems.empty(), problems.front());
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
