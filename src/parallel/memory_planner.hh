/**
 * @file
 * Per-GPU memory planning: weights, gradients, optimizer state,
 * activations. Used to validate that a parallel configuration fits a
 * device's HBM — the paper derives its candidate configuration sets
 * exactly this way (Sec. 3.1), and activation recomputation "unlocks"
 * configurations by shrinking the activation term (Sec. 4.3).
 */

#ifndef CHARLLM_PARALLEL_MEMORY_PLANNER_HH
#define CHARLLM_PARALLEL_MEMORY_PLANNER_HH

#include "common/quantity.hh"
#include "model/analytics.hh"
#include "parallel/parallel_config.hh"

namespace charllm {
namespace parallel {

/** Per-GPU memory footprint, in bytes. */
struct MemoryBreakdown
{
    double weights = 0.0;
    double gradients = 0.0;
    double optimizer = 0.0;
    double activations = 0.0;
    double workspace = 0.0;

    double
    total() const
    {
        return weights + gradients + optimizer + activations + workspace;
    }
};

/** Training-memory-relevant options. */
struct MemoryOptions
{
    int microbatchSize = 1;
    int microbatchesInFlight = 1; //!< pipeline-schedule dependent
    bool actRecompute = false;
    bool zero1 = false;     //!< optimizer state sharded across DP
    bool inference = false; //!< no gradients/optimizer/backward stash
};

/** Append to @p problems a line if ep does not divide the experts. */
void addExpertProblems(Problems& problems,
                       const model::TransformerConfig& model_config,
                       const ParallelConfig& par);

/**
 * Computes the worst-stage per-GPU footprint of a (model, parallelism)
 * pair.
 */
class MemoryPlanner
{
  public:
    MemoryPlanner(const model::TransformerConfig& model_config,
                  const ParallelConfig& parallel_config);

    /** Transformer layers resident on pipeline stage @p stage. */
    int layersOnStage(int stage) const;

    /** Parameters resident per GPU on pipeline stage @p stage. */
    double paramsPerGpu(int stage) const;

    /** Footprint of stage @p stage under the given options. */
    MemoryBreakdown planStage(int stage, const MemoryOptions& opts) const;

    /** Worst footprint across stages (stage 0 holds most in-flight). */
    MemoryBreakdown worstStage(const MemoryOptions& opts) const;

    /** True if the worst stage fits in @p gpu_memory. */
    bool fits(Bytes gpu_memory, const MemoryOptions& opts) const;

    /** Usable fraction of HBM (allocator/fragmentation reserve). */
    static constexpr double kUsableFraction = 0.92;

  private:
    model::ModelAnalytics analytics;
    ParallelConfig par;
};

} // namespace parallel
} // namespace charllm

#endif // CHARLLM_PARALLEL_MEMORY_PLANNER_HH
