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

namespace charllm {
namespace core {

/** Full event-driven simulation of one experiment. */
class DesBackend final : public ExperimentBackend
{
  public:
    const char* name() const override { return "des"; }

  private:
    void run() override;
};

} // namespace core
} // namespace charllm

#endif // CHARLLM_CORE_DES_BACKEND_HH
