#include "obs/metrics.hh"

#include <sstream>

#include "common/strings.hh"
#include "hw/platform.hh"
#include "net/flow_network.hh"
#include "sim/event_queue.hh"
#include "sim/simulator.hh"

namespace charllm {
namespace obs {

Counter&
MetricsRegistry::counter(const std::string& name)
{
    return counters[name];
}

Gauge&
MetricsRegistry::gauge(const std::string& name)
{
    return gauges[name];
}

Histogram&
MetricsRegistry::histogram(const std::string& name)
{
    return histograms[name];
}

bool
MetricsRegistry::empty() const
{
    return size() == 0;
}

std::size_t
MetricsRegistry::size() const
{
    return counters.size() + gauges.size() + histograms.size();
}

std::string
MetricsRegistry::toJson() const
{
    std::ostringstream os;
    os << "{\"counters\":{";
    bool first = true;
    for (const auto& [name, c] : counters) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << jsonEscape(name) << "\":" << c.value();
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto& [name, g] : gauges) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << jsonEscape(name)
           << "\":" << formatDouble(g.value(), 17);
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : histograms) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << jsonEscape(name) << "\":{\"count\":" << h.count()
           << ",\"sum\":" << formatDouble(h.sum(), 17)
           << ",\"min\":" << formatDouble(h.min(), 17)
           << ",\"max\":" << formatDouble(h.max(), 17)
           << ",\"mean\":" << formatDouble(h.mean(), 17)
           << ",\"p50\":" << formatDouble(h.quantile(0.50), 17)
           << ",\"p90\":" << formatDouble(h.quantile(0.90), 17)
           << ",\"p99\":" << formatDouble(h.quantile(0.99), 17) << '}';
    }
    os << "}}";
    return os.str();
}

void
SimCounters::capture(const sim::EventQueue& queue,
                     const net::FlowNetwork& network)
{
    eventsPopped = queue.numPopped();
    eventsCancelled = queue.numCancelled();
    eventSlabSlots = queue.slabSize();
    eventsRescheduled = queue.numRescheduled();
    flowsStarted = network.numFlowsStarted();
    flowFullRecomputes = network.numFullRecomputes();
    flowFastJoins = network.numFastJoins();
    flowFastCompletions = network.numFastCompletions();
}

void
SimCounters::capture(const sim::Simulator& simulator,
                     const net::FlowNetwork& network)
{
    capture(simulator.queue(), network);
    for (int d = 1; d < simulator.numDomains(); ++d) {
        const sim::EventQueue& q = simulator.domainQueue(d);
        eventsPopped += q.numPopped();
        eventsCancelled += q.numCancelled();
        eventSlabSlots += q.slabSize();
        eventsRescheduled += q.numRescheduled();
    }
    ticksFastForwarded = simulator.numFastForwarded();
}

void
SimCounters::capture(const hw::Platform& platform)
{
    hw::GovernorCounters c = platform.counters();
    governorTicks = c.ticks;
    deviceEvals = c.deviceEvals;
    clockChanges = c.clockChanges;
    refreshes = c.refreshes;
    powerEvals = c.powerEvals;
}

void
SimCounters::addTo(MetricsRegistry& registry) const
{
    registry.counter("sim.events_popped").inc(eventsPopped);
    registry.counter("sim.events_cancelled").inc(eventsCancelled);
    registry.counter("sim.event_slab_slots").inc(eventSlabSlots);
    registry.counter("sim.ticks_fast_forwarded").inc(ticksFastForwarded);
    registry.counter("sim.events_rescheduled").inc(eventsRescheduled);
    registry.counter("net.flows_started").inc(flowsStarted);
    registry.counter("net.full_recomputes").inc(flowFullRecomputes);
    registry.counter("net.fast_joins").inc(flowFastJoins);
    registry.counter("net.fast_completions").inc(flowFastCompletions);
    registry.counter("faults.injected").inc(faultsInjected);
    registry.counter("hw.governor_ticks").inc(governorTicks);
    registry.counter("hw.device_evals").inc(deviceEvals);
    registry.counter("hw.clock_changes").inc(clockChanges);
    registry.counter("hw.refreshes").inc(refreshes);
    registry.counter("hw.power_evals").inc(powerEvals);
}

SimCounters&
SimCounters::merge(const SimCounters& other)
{
    eventsPopped += other.eventsPopped;
    eventsCancelled += other.eventsCancelled;
    eventSlabSlots += other.eventSlabSlots;
    ticksFastForwarded += other.ticksFastForwarded;
    eventsRescheduled += other.eventsRescheduled;
    flowsStarted += other.flowsStarted;
    flowFullRecomputes += other.flowFullRecomputes;
    flowFastJoins += other.flowFastJoins;
    flowFastCompletions += other.flowFastCompletions;
    faultsInjected += other.faultsInjected;
    governorTicks += other.governorTicks;
    deviceEvals += other.deviceEvals;
    clockChanges += other.clockChanges;
    refreshes += other.refreshes;
    powerEvals += other.powerEvals;
    return *this;
}

} // namespace obs
} // namespace charllm
