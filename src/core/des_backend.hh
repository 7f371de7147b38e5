/**
 * @file
 * The discrete-event fidelity backend: today's full simulation stack
 * (event queue, max-min fair flow network, collective engine, per-rank
 * training engine, transient thermal/DVFS feedback, fault injection,
 * resilience, telemetry) behind the sim::Backend seam. This is the
 * reference backend — its output is byte-identical to the historical
 * monolithic core::Experiment::run path.
 */

#ifndef CHARLLM_CORE_DES_BACKEND_HH
#define CHARLLM_CORE_DES_BACKEND_HH

#include "core/experiment.hh"
#include "hw/platform.hh"

namespace charllm {
namespace core {

/** Full event-driven simulation of one experiment. */
class DesBackend final : public ExperimentBackend
{
  public:
    /** @param ticks hw::TickMode::Eager selects the governor's
     *         reference twin (tests and the thermal cross-check). */
    explicit DesBackend(hw::TickMode ticks = hw::TickMode::Lazy)
        : tickMode(ticks)
    {
    }

    const char* name() const override { return "des"; }

  private:
    void run() override;

    hw::TickMode tickMode;
};

} // namespace core
} // namespace charllm

#endif // CHARLLM_CORE_DES_BACKEND_HH
