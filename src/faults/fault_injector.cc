#include "faults/fault_injector.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "hw/calibration.hh"
#include "sim/event_queue.hh"

namespace charllm {
namespace faults {

namespace {

/** Maximum ECC retry attempts before the stall resolves. */
constexpr int kMaxEccRetries = 6;

/** Probability that an ECC stall needs one more (doubled) retry. */
constexpr double kEccRetryProb = 0.35;

/** Most cycles (flap) or stalls (ECC) one periodic fault may expand to
 *  (expected, durationSec / periodSec); each is a record and events. */
constexpr double kMaxPeriodicEvents = 1e6;

/** Open-ended interval sentinel in FaultRecord::endSec. */
constexpr double kOpenEnded = -1.0;

} // namespace

void
addFaultProblems(std::vector<std::string>& problems, std::size_t index,
                 const FaultSpec& spec, int num_gpus, int num_links)
{
    const char* kind = faultKindName(spec.kind);
    auto require = [&](bool ok, const auto&... why) {
        if (!ok) {
            problems.push_back(detail::composeMessage(
                "fault ", index, " (", kind, ") ", why...));
        }
    };
    double start = spec.startSec;
    double duration = spec.durationSec;
    double m = spec.magnitude;
    bool start_ok = std::isfinite(start) && start >= 0.0;
    bool duration_ok = std::isfinite(duration) && duration >= 0.0;
    require(start_ok, "startSec must be finite and >= 0 (got ", start, ")");
    require(duration_ok, "durationSec must be finite and >= 0 (got ",
            duration, ")");
    bool window_fits = start_ok && duration_ok &&
                       sim::fitsTick(start + duration);
    require(!start_ok || !duration_ok || window_fits,
            "startSec + durationSec (", start + duration,
            " s) does not fit the event clock (1.8e10 s)");
    // Past the window apply() schedules a fail-stop's restart cost and
    // an ECC stall's longest retry chain.
    double tail = spec.kind == FaultKind::GpuFailStop ? m
                  : spec.kind == FaultKind::EccStall
                      ? m * (std::pow(2.0, kMaxEccRetries) - 1.0)
                      : 0.0;
    require(!window_fits || !(tail > 0.0 && std::isfinite(tail)) ||
                sim::fitsTick(start + duration + tail),
            "magnitude (", m, " s) puts a ", tail,
            " s stall or restart past startSec + durationSec, beyond the "
            "event clock (1.8e10 s)");
    bool link = spec.kind == FaultKind::LinkDerate ||
                spec.kind == FaultKind::LinkFlap;
    int targets = link ? num_links : num_gpus;
    require(spec.target >= 0 && spec.target < targets, "target ",
            spec.target, " is not one of the cluster's ", targets,
            link ? " links" : " GPUs");
    auto require_periodic = [&] {
        bool periodic = spec.periodSec > 0.0 && duration > 0.0;
        require(periodic, "needs periodSec > 0 and durationSec > 0");
        double cycles = duration / spec.periodSec;
        require(!periodic || cycles <= kMaxPeriodicEvents, "durationSec (",
                duration, " s) over periodSec (", spec.periodSec,
                " s) expands to ~", cycles, " events, over the cap of ",
                kMaxPeriodicEvents);
    };
    switch (spec.kind) {
      case FaultKind::GpuSlowdown:
        require(m > 0.0 && m < 1.0, "magnitude must be in (0, 1) (got ", m,
                ")");
        break;
      case FaultKind::LinkFlap:
        require_periodic();
        require(spec.dutyCycle > 0.0 && spec.dutyCycle < 1.0,
                "dutyCycle must be in (0, 1) (got ", spec.dutyCycle, ")");
        [[fallthrough]];
      case FaultKind::LinkDerate:
        require(m > 0.0 && m <= 1.0, "magnitude must be in (0, 1] (got ",
                m, ")");
        break;
      case FaultKind::FanFailure:
        require(m > 1.0 && std::isfinite(m),
                "magnitude must be a finite resistance scale > 1 (got ", m,
                ")");
        break;
      case FaultKind::EccStall:
        require_periodic();
        [[fallthrough]];
      case FaultKind::GpuFailStop:
      case FaultKind::HotInlet:
        require(m > 0.0 && std::isfinite(m),
                "magnitude must be finite and > 0 (got ", m, ")");
        break;
    }
}

FaultInjector::FaultInjector(sim::Simulator& simulator,
                             hw::Platform& platform,
                             net::FlowNetwork& netw)
    : sim(simulator), plat(platform), network(netw),
      activeByGpu(static_cast<std::size_t>(platform.numGpus()))
{
}

void
FaultInjector::attachEngine(runtime::TrainingEngine& eng)
{
    engine = &eng;
}

void
FaultInjector::attachMapper(parallel::RankMapper& m)
{
    mapper = &m;
}

void
FaultInjector::record(FaultKind kind, int target, double start_s,
                      double end_s, double magnitude)
{
    records.push_back(FaultRecord{kind, target, start_s, end_s,
                                  magnitude});
}

void
FaultInjector::trackInterval(int gpu, FaultKind kind, double start_s,
                             double end_s)
{
    if (gpu < 0 || gpu >= plat.numGpus())
        return;
    auto& marks = activeByGpu[static_cast<std::size_t>(gpu)];
    std::size_t slot = marks.size();
    for (std::size_t i = 0; i < marks.size(); ++i) {
        if (marks[i].kind == kind) {
            slot = i;
            break;
        }
    }
    if (slot == marks.size())
        marks.push_back(ActiveMark{kind, 0});
    sim.scheduleAt(sim::toTicks(start_s), [this, gpu, slot] {
        ++activeByGpu[static_cast<std::size_t>(gpu)][slot].count;
    });
    if (end_s > start_s) {
        sim.scheduleAt(sim::toTicks(end_s), [this, gpu, slot] {
            --activeByGpu[static_cast<std::size_t>(gpu)][slot].count;
        });
    }
}

void
FaultInjector::overlayOnTrace(telemetry::KernelTrace& trace) const
{
    for (const auto& r : records) {
        int dev = r.target;
        if (r.kind == FaultKind::LinkDerate ||
            r.kind == FaultKind::LinkFlap) {
            dev = network.topology().link(r.target).ownerGpu;
        }
        trace.recordFault(dev, faultKindName(r.kind), r.startSec,
                          r.endSec >= r.startSec
                              ? r.endSec - r.startSec
                              : -1.0);
    }
}

const char*
FaultInjector::activeGpuFault(int gpu) const
{
    CHARLLM_ASSERT(gpu >= 0 && static_cast<std::size_t>(gpu) <
                                   activeByGpu.size(),
                   "gpu id ", gpu, " out of range");
    for (const auto& mark : activeByGpu[static_cast<std::size_t>(gpu)]) {
        if (mark.count > 0)
            return faultKindName(mark.kind);
    }
    return "";
}

void
FaultInjector::apply(const FaultScenario& scenario)
{
    CHARLLM_ASSERT(!applied, "scenario already applied");
    applied = true;
    std::vector<std::string> problems;
    int links = static_cast<int>(network.topology().links().size());
    for (std::size_t i = 0; i < scenario.faults.size(); ++i)
        addFaultProblems(problems, i, scenario.faults[i], plat.numGpus(),
                         links);
    CHARLLM_ASSERT(problems.empty(), problems.front());
    Rng rng(scenario.seed);
    for (const FaultSpec& spec : scenario.faults) {
        CHARLLM_ASSERT(spec.startSec >= sim.nowSeconds(),
                       "fault scheduled in the past: ", spec.startSec);
        int id = spec.target;
        switch (spec.kind) {
          case FaultKind::GpuSlowdown:
            applyWindow(spec, id, 1.0, [this, id](double factor) {
                plat.setGpuSlowdown(id, factor);
            });
            break;
          case FaultKind::GpuFailStop:
            applyGpuFailStop(spec);
            break;
          case FaultKind::LinkDerate: {
            int owner = network.topology().link(id).ownerGpu;
            applyWindow(spec, owner, 1.0, [this, id](double factor) {
                network.setLinkDerate(id, factor);
            });
            break;
          }
          case FaultKind::LinkFlap:
            applyLinkFlap(spec, rng);
            break;
          case FaultKind::HotInlet:
            applyWindow(spec, id, 0.0, [this, id](double rise) {
                plat.thermal().setInletOffset(id, CelsiusDelta(rise));
            });
            break;
          case FaultKind::FanFailure:
            applyWindow(spec, id, 1.0, [this, id](double scale) {
                plat.thermal().setResistanceScale(id, scale);
            });
            break;
          case FaultKind::EccStall:
            applyEccStall(spec, rng);
            break;
        }
    }
    std::stable_sort(records.begin(), records.end(),
                     [](const FaultRecord& a, const FaultRecord& b) {
        if (a.startSec != b.startSec)
            return a.startSec < b.startSec;
        if (a.kind != b.kind)
            return a.kind < b.kind;
        return a.target < b.target;
    });
}

template <typename Set>
void
FaultInjector::applyWindow(const FaultSpec& spec, int owner, double healthy,
                           Set set)
{
    double m = spec.magnitude;
    sim.scheduleAt(sim::toTicks(spec.startSec), [set, m] { set(m); });
    double end = kOpenEnded;
    if (spec.durationSec > 0.0) {
        end = spec.startSec + spec.durationSec;
        sim.scheduleAt(sim::toTicks(end), [set, healthy] { set(healthy); });
    }
    record(spec.kind, spec.target, spec.startSec, end, m);
    trackInterval(owner, spec.kind, spec.startSec,
                  end == kOpenEnded ? spec.startSec : end);
}

void
FaultInjector::applyGpuFailStop(const FaultSpec& spec)
{
    int gpu = spec.target;
    // The replacement (or rebooted node) arrives after the restart
    // cost unless an explicit outage window was given.
    double outage = spec.durationSec > 0.0 ? spec.durationSec
                                           : spec.magnitude;
    double end = spec.startSec + outage;
    sim.scheduleAt(sim::toTicks(spec.startSec), [this, gpu, spec] {
        plat.setGpuSlowdown(gpu, hw::calib::kFailStopDerate);
        if (engine)
            engine->notifyFailStop(Seconds(spec.magnitude));
        if (mapper) {
            // Elastic response: hand the dead device's ranks to a
            // same-node peer (see parallel::failoverPeer for the
            // placement rationale). Takes effect when the next
            // iteration's program is built.
            int peer = parallel::failoverPeer(
                *mapper, gpu, network.topology().gpusPerNode());
            if (peer >= 0)
                mapper->swapDevices(gpu, peer);
        }
    });
    sim.scheduleAt(sim::toTicks(end), [this, gpu] {
        plat.setGpuSlowdown(gpu, 1.0);
    });
    record(spec.kind, gpu, spec.startSec, end, spec.magnitude);
    trackInterval(gpu, spec.kind, spec.startSec, end);
}

void
FaultInjector::applyLinkFlap(const FaultSpec& spec, Rng& rng)
{
    net::LinkId link = spec.target;
    int owner = network.topology().link(link).ownerGpu;
    double horizon = spec.startSec + spec.durationSec;
    double t = spec.startSec;
    while (t < horizon) {
        // Jittered cycle so flaps do not phase-lock with the
        // iteration structure; drawn here, at apply() time, so the
        // schedule depends only on the scenario seed.
        double cycle = spec.periodSec * rng.uniform(0.7, 1.3);
        double down_end = std::min(t + cycle * spec.dutyCycle, horizon);
        sim.scheduleAt(sim::toTicks(t), [this, link, spec] {
            network.setLinkDerate(link, spec.magnitude);
        });
        sim.scheduleAt(sim::toTicks(down_end), [this, link] {
            network.setLinkDerate(link, 1.0);
        });
        record(spec.kind, spec.target, t, down_end, spec.magnitude);
        trackInterval(owner, spec.kind, t, down_end);
        t += cycle;
    }
}

void
FaultInjector::applyEccStall(const FaultSpec& spec, Rng& rng)
{
    int gpu = spec.target;
    double horizon = spec.startSec + spec.durationSec;
    double t = spec.startSec + spec.periodSec * rng.uniform(0.1, 1.0);
    while (t < horizon) {
        // Retry with exponential backoff: attempt i costs
        // magnitude * 2^(i-1); a retry is needed with fixed
        // probability, capped at kMaxEccRetries attempts.
        int attempts = 1;
        while (attempts < kMaxEccRetries &&
               rng.uniform() < kEccRetryProb) {
            ++attempts;
        }
        double total = spec.magnitude *
                       (std::pow(2.0, attempts) - 1.0);
        sim.scheduleAt(sim::toTicks(t), [this, gpu, total] {
            if (engine)
                engine->injectTransientStall(gpu, Seconds(total));
        });
        record(spec.kind, gpu, t, t + total, total);
        trackInterval(gpu, spec.kind, t, t + total);
        t += spec.periodSec * rng.uniform(0.5, 1.5);
    }
}

} // namespace faults
} // namespace charllm
