#include "faults/scenarios.hh"

namespace charllm {
namespace faults {
namespace scenarios {

FaultScenario
straggler(int gpu, double factor, double start_s)
{
    FaultScenario s;
    s.name = "straggler";
    s.faults.push_back(FaultSpec{FaultKind::GpuSlowdown, gpu, start_s,
                                 0.0, factor, 0.0, 0.5});
    return s;
}

FaultScenario
failStop(int gpu, Seconds restart_cost, double start_s)
{
    FaultScenario s;
    s.name = "fail-stop";
    s.faults.push_back(FaultSpec{FaultKind::GpuFailStop, gpu, start_s,
                                 0.0, restart_cost.value(), 0.0, 0.5});
    return s;
}

FaultScenario
hotInlet(int gpu, CelsiusDelta excess, double start_s)
{
    FaultScenario s;
    s.name = "hot-inlet";
    s.faults.push_back(FaultSpec{FaultKind::HotInlet, gpu, start_s,
                                 0.0, excess.value(), 0.0, 0.5});
    return s;
}

FaultScenario
flappingLink(net::LinkId link, double derate, Seconds period,
             Seconds window, double start_s)
{
    FaultScenario s;
    s.name = "flapping-link";
    s.faults.push_back(FaultSpec{FaultKind::LinkFlap, link, start_s,
                                 window.value(), derate, period.value(),
                                 0.4});
    return s;
}

FaultScenario
eccStorm(int gpu, Seconds base_stall, Seconds period,
         Seconds window, double start_s)
{
    FaultScenario s;
    s.name = "ecc-storm";
    s.faults.push_back(FaultSpec{FaultKind::EccStall, gpu, start_s,
                                 window.value(), base_stall.value(),
                                 period.value(), 0.5});
    return s;
}

FaultScenario
degradedPod(const net::Topology& topo, Seconds window)
{
    FaultScenario s;
    s.name = "degraded-pod";
    // Thermal leg: GPU 0 breathes hot-aisle air for the whole run.
    // Network leg: node 0's IB egress flaps between 100% and 25%
    // capacity, roughly 20 cycles across the window.
    for (const FaultScenario& leg :
         {hotInlet(0, CelsiusDelta(14.0)),
          flappingLink(topo.nicOutLink(0), 0.25, window / 20.0, window)})
        s.faults.push_back(leg.faults.front());
    return s;
}

} // namespace scenarios
} // namespace faults
} // namespace charllm
