#include "hw/platform.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "hw/calibration.hh"

namespace charllm {
namespace hw {

namespace {

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

} // namespace

Platform::Platform(sim::Simulator& simulator, const GpuSpec& spec,
                   const ChassisLayout& layout, int num_nodes,
                   TickMode tick_mode)
    : sim(simulator),
      thermalNet(layout, num_nodes, spec.thermalResistance),
      nodes(num_nodes), mode(tick_mode),
      nextExit(kNever),
      uniformFromAt(simulator.now()), lastTickAt(simulator.now())
{
    int total = num_nodes * layout.gpusPerNode();
    auto n = static_cast<std::size_t>(total);
    devices.reserve(n);
    powers.resize(n);
    for (int i = 0; i < total; ++i)
        devices.push_back(std::make_unique<Gpu>(i, spec));
    if (mode == TickMode::Lazy) {
        changed = MarkedSet(static_cast<std::size_t>(num_nodes));
        evalTick.assign(n, 0);
        evalBand.assign(n, 0);
        exitTick.assign(n, -1);
        foldedTick.assign(static_cast<std::size_t>(num_nodes), 0);
        for (int i = 0; i < total; ++i)
            devices[static_cast<std::size_t>(i)]->watchChanges(&changed,
                                                               nodeOf(i));
    }
}

void
Platform::start()
{
    CHARLLM_ASSERT(!started, "Platform::start called twice");
    started = true;
    tickPeriod = sim::toTicks(calib::kGovernorPeriodSec);
    sim.every(tickPeriod, [this] { tick(); },
              mode == TickMode::Lazy ? this : nullptr);
}

std::uint64_t
Platform::quietFirings() const
{
    // The lazyTick early return, for the ticks after the one that just
    // ran: same spacing, nothing marked, no search pending, no exit.
    if (!changed.ids().empty() || !thermalNet.staleNodes().empty() ||
        quietAtLastTick || tickSpacing != tickPeriod)
        return 0;
    if (nextExit == kNever)
        return std::numeric_limits<std::uint64_t>::max();
    // Tick ticks() + i is quiet while it comes before nextExit.
    return static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, nextExit - thermalNet.ticks() - 1));
}

void
Platform::skipFirings(std::uint64_t k)
{
    thermalNet.advance(static_cast<std::int64_t>(k));
    lastTickAt += k * tickPeriod;
    work.ticks += k;
}

GovernorCounters
Platform::counters() const
{
    GovernorCounters c = work;
    for (const auto& d : devices) {
        c.refreshes += d->refreshes();
        c.powerEvals += d->powerEvals();
    }
    return c;
}

void
Platform::capNodePower(int node, Watts watts_per_gpu)
{
    int per_node = gpusPerNode();
    for (int slot = 0; slot < per_node; ++slot)
        gpu(node * per_node + slot).setPowerCap(watts_per_gpu);
}

void
Platform::setGpuSlowdown(int gpu_id, double factor)
{
    if (gpu(gpu_id).setSlowdown(factor, sim.nowSeconds()) &&
        clockObserver) {
        clockObserver->onClockChange(gpu_id);
    }
}

void
Platform::tick()
{
    ++work.ticks;
    if (mode == TickMode::Eager)
        eagerTick();
    else
        lazyTick();
}

void
Platform::eagerTick()
{
    double now = sim.nowSeconds();
    for (std::size_t i = 0; i < devices.size(); ++i) {
        // Refreshing power via thermalUpdate below; read current draw.
        powers[i] = devices[i]->power();
    }
    thermalNet.step(Seconds(calib::kGovernorPeriodSec), powers);
    work.deviceEvals += devices.size();
    for (std::size_t i = 0; i < devices.size(); ++i) {
        bool changed = devices[i]->thermalUpdate(
            thermalNet.temperature(static_cast<int>(i)), now);
        if (changed) {
            ++work.clockChanges;
            if (clockObserver)
                clockObserver->onClockChange(static_cast<int>(i));
        }
    }
}

void
Platform::lazyTick()
{
    sim::Tick at = sim.now();
    if (at - lastTickAt != tickSpacing) {
        // Folded runs assume evenly spaced ticks: close every run at
        // a change of spacing.
        foldAllTemperatures();
        uniformFrom = thermalNet.ticks();
        uniformFromAt = lastTickAt;
        tickSpacing = at - lastTickAt;
    }
    const std::int64_t n = thermalNet.ticks() + 1;

    // (a), (b) Re-anchor every node whose powers, faults or governors
    // changed, from the power snapshot before this tick's governor
    // calls; all its devices are due.
    for (int node : changed.ids())
        thermalNet.markStale(node);
    changed.clear();
    const bool reanchored = !thermalNet.staleNodes().empty();
    const int per_node = gpusPerNode();
    for (int node : thermalNet.staleNodes()) {
        foldTemperatures(node);
        for (int i = node * per_node; i < (node + 1) * per_node; ++i)
            powers[static_cast<std::size_t>(i)] =
                devices[static_cast<std::size_t>(i)]->power();
        thermalNet.reanchor(node, powers);
        // Every device here is due: evaluate() records this tick's
        // temperature as the eager tick does.
        foldedTick[static_cast<std::size_t>(node)] = n;
    }
    thermalNet.clearStale();

    thermalNet.advance();
    lastTickAt = at;
    if (!reanchored && !quietAtLastTick && nextExit > n)
        return;
    quietAtLastTick = false;
    // The due devices, in ascending id: those re-anchored above and
    // those leaving their band now.
    nextExit = kNever;
    double now = sim::toSeconds(at);
    for (int id = 0; id < numGpus(); ++id) {
        if (thermalNet.anchoredAt(id) == n - 1) {
            evaluate(id, n, now);
            continue;
        }
        auto d = static_cast<std::size_t>(id);
        if (evalTick[d] == n - 1) {
            // (c) Quiet at the last tick and its node's closed form
            // kept: find when it leaves the band it was in. Waiting
            // this tick skips the search for the devices re-anchored
            // now (most of them where clocks move every tick).
            auto [lo, hi] = devices[d]->dvfs().zoneBounds(evalBand[d]);
            exitTick[d] = thermalNet.firstTickLeaving(id, n - 1, lo, hi);
        }
        if (exitTick[d] < 0)
            continue;
        if (exitTick[d] <= n)
            evaluate(id, n, now);
        else
            nextExit = std::min(nextExit, exitTick[d]);
    }
}

void
Platform::evaluate(int id, std::int64_t n, double now)
{
    ++work.deviceEvals;
    Gpu& g = *devices[static_cast<std::size_t>(id)];
    Celsius temp = thermalNet.temperature(id);
    if (thermalNet.anchoredAt(id) == n - 1)
        g.recordTemperature(temp, now);
    Gpu::GovernorStep step = g.governorUpdate(temp, now);
    if (step.clockChanged) {
        ++work.clockChanges;
        if (clockObserver)
            clockObserver->onClockChange(id);
    }
    auto d = static_cast<std::size_t>(id);
    exitTick[d] = -1;
    if (step.stateChanged) {
        // A moved clock has marked the node already (its power changed).
        // A moved reason alone is marked here: the governor would
        // repeat its decision, but (c) watches a device only from a
        // quiet evaluation's band.
        if (!step.clockChanged)
            changed.mark(nodeOf(id));
        return;
    }
    evalTick[d] = n;
    evalBand[d] = g.dvfs().zone(temp);
    quietAtLastTick = true;
}

sim::Tick
Platform::tickTime(std::int64_t n) const
{
    return uniformFromAt +
           static_cast<sim::Tick>(n - uniformFrom) * tickSpacing;
}

void
Platform::foldTemperatures(int node)
{
    std::int64_t& folded = foldedTick[static_cast<std::size_t>(node)];
    const std::int64_t last = thermalNet.ticks();
    if (last <= folded)
        return;
    double first_at = sim::toSeconds(tickTime(folded + 1));
    double last_at = sim::toSeconds(tickTime(last));
    const int per_node = gpusPerNode();
    const std::int64_t closed = last - folded - 1;
    for (int i = node * per_node; i < (node + 1) * per_node; ++i) {
        ThermalModel::Run r;
        if (closed > 0)
            r = thermalNet.run(i, folded + 1, last - 1);
        devices[static_cast<std::size_t>(i)]->recordTemperatureRun(
            first_at, last_at, closed, r.sum, r.lo, r.hi,
            thermalNet.temperatureAt(i, last));
    }
    folded = last;
}

void
Platform::foldAllTemperatures()
{
    for (int node = 0; node < nodes; ++node)
        foldTemperatures(node);
}

void
Platform::resetStats()
{
    double now = sim.nowSeconds();
    if (mode == TickMode::Lazy)
        foldAllTemperatures();
    for (auto& d : devices)
        d->resetStats(now);
}

void
Platform::finishStats()
{
    double now = sim.nowSeconds();
    if (mode == TickMode::Lazy)
        foldAllTemperatures();
    for (auto& d : devices)
        d->finishStats(now);
}

} // namespace hw
} // namespace charllm
