/**
 * @file
 * The pluggable fidelity-backend seam behind core::Experiment.
 *
 * A Backend turns one ExperimentConfig into one ExperimentResult in
 * three phases, mirroring the compiler-style lower/execute/results
 * idiom: lower() validates the config and builds whatever state the
 * backend needs (DES: nothing yet — the simulation stack is per-run;
 * analytical: cached per-iteration programs and op summaries),
 * execute() runs it, results() hands back the metrics. Every caller —
 * core::Experiment::run, core::SweepRunner, the figure benches — goes
 * through this interface, so swapping fidelity is a config field, not
 * a code path.
 *
 * Contract shared by all implementations (core::ExperimentBackend):
 *  - lower() exits listing every core::validate problem; that is
 *    where the analytical backend refuses a fault scenario,
 *    resilience and the telemetry sampler.
 *  - lower() must be called exactly once, before execute();
 *    results() only after execute(). Implementations assert this.
 *  - A Backend instance runs one experiment; it is not reusable.
 *  - Identical configs produce identical results (determinism), and
 *    DesBackend output is byte-identical to the historical monolithic
 *    Experiment::run path.
 */

#ifndef CHARLLM_SIM_BACKEND_HH
#define CHARLLM_SIM_BACKEND_HH

#include <memory>

#include "sim/backend_kind.hh"

namespace charllm {

namespace core {
struct ExperimentConfig;
struct ExperimentResult;
} // namespace core

namespace sim {

/** One experiment execution at a chosen fidelity. */
class Backend
{
  public:
    virtual ~Backend() = default;

    /** Validate @p config and prepare backend state. */
    virtual void lower(const core::ExperimentConfig& config) = 0;

    /** Run the lowered experiment to completion. */
    virtual void execute() = 0;

    /** Collect the metrics of the executed experiment. */
    virtual core::ExperimentResult results() = 0;

    /** Stable backend name (matches backendKindName). */
    virtual const char* name() const = 0;
};

/**
 * Backend factory. Defined in src/core (the implementations need the
 * full experiment stack); declared here so callers depend only on the
 * interface.
 */
std::unique_ptr<Backend> makeBackend(BackendKind kind);

} // namespace sim
} // namespace charllm

#endif // CHARLLM_SIM_BACKEND_HH
