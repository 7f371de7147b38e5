/**
 * @file
 * Preset FaultScenario catalog: the degradation patterns the paper
 * observes in production fleets (thermal stragglers, flapping IB
 * links, node power failures, ECC storms), packaged as reproducible
 * scenarios for experiments, tests, and ablation benches.
 *
 * Durations and temperature deltas are typed quantities; injection
 * times (@p start_s) are points on the simulator clock, which by
 * repo convention travel as raw double seconds (DESIGN.md §5).
 */

#ifndef CHARLLM_FAULTS_SCENARIOS_HH
#define CHARLLM_FAULTS_SCENARIOS_HH

#include "common/quantity.hh"
#include "faults/fault.hh"
#include "net/topology.hh"

namespace charllm {
namespace faults {
namespace scenarios {

/** Persistent straggler: @p gpu runs at @p factor of nominal speed. */
FaultScenario straggler(int gpu, double factor, double start_s = 0.0);

/**
 * Node power incident: @p gpu fail-stops at @p start_s and the job
 * pays @p restart_cost of checkpoint/restart at the next iteration
 * boundary; the device returns after the restart window.
 */
FaultScenario failStop(int gpu, Seconds restart_cost, double start_s);

/** Machine-room hot spot: @p gpu's inlet air runs @p excess hotter. */
FaultScenario hotInlet(int gpu, CelsiusDelta excess, double start_s = 0.0);

/**
 * Flapping link: @p link oscillates between full capacity and
 * @p derate with a jittered @p period cycle over @p window.
 */
FaultScenario flappingLink(net::LinkId link, double derate,
                           Seconds period, Seconds window,
                           double start_s = 0.0);

/**
 * ECC retry storm on @p gpu: transient compute stalls of roughly
 * @p base_stall (doubled per retry) at a jittered @p period cadence
 * over @p window.
 */
FaultScenario eccStorm(int gpu, Seconds base_stall, Seconds period,
                       Seconds window, double start_s = 0.0);

/**
 * The acceptance scenario: one hot-inlet GPU (GPU 0, +14 degC) plus
 * one flapping IB link (node 0's NIC egress, derated to 25% on a
 * jittered cycle) over @p window. Exercises both the thermal and
 * the network degradation paths at once.
 */
FaultScenario degradedPod(const net::Topology& topo, Seconds window);

} // namespace scenarios
} // namespace faults
} // namespace charllm

#endif // CHARLLM_FAULTS_SCENARIOS_HH
