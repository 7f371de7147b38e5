/**
 * @file
 * Parallelism configuration: tensor / pipeline / data / expert widths
 * and the FSDP flavour of the data dimension. Naming follows the
 * paper: "EP<e>-TP<t>-PP<p>", with DP filling the remaining devices.
 */

#ifndef CHARLLM_PARALLEL_PARALLEL_CONFIG_HH
#define CHARLLM_PARALLEL_PARALLEL_CONFIG_HH

#include <string>

#include "common/logging.hh"

namespace charllm {
namespace parallel {

/**
 * A parallelism layout. worldSize() == tp * dp * pp; expert
 * parallelism (ep) partitions the data-parallel dimension, matching
 * Megatron-Core's TP -> EP -> DP -> PP rank ordering.
 */
struct ParallelConfig
{
    int tp = 1; //!< tensor-parallel width
    int pp = 1; //!< pipeline-parallel depth
    int dp = 1; //!< data-parallel replicas
    int ep = 1; //!< expert-parallel width (divides dp)
    bool fsdp = false; //!< data dimension runs FSDP (sharded params)

    int worldSize() const { return tp * dp * pp; }

    /** Every width is at least one (a check dividing by one needs it). */
    bool
    positiveWidths() const
    {
        return tp >= 1 && pp >= 1 && dp >= 1 && ep >= 1;
    }

    /** Paper-style label, e.g. "EP8-TP1-PP4" or "TP8-FSDP4". */
    std::string label() const;

    /** Assert that addParallelProblems finds nothing. */
    void validate() const;

    /**
     * Construct a config for @p world_size GPUs from the
     * model-parallel widths, deriving dp = world / (tp*pp).
     */
    static ParallelConfig forWorld(int world_size, int tp, int pp,
                                   int ep = 1, bool fsdp = false);
};

/** Append to @p problems each range of @p par it breaks. */
void addParallelProblems(Problems& problems, const ParallelConfig& par);

/** Append to @p problems each way @p global_batch fails to split into
 *  @p dp replicas of whole microbatches (silent for dp < 1). */
void addBatchProblems(Problems& problems, int dp, int global_batch,
                      int microbatch_size);

} // namespace parallel
} // namespace charllm

#endif // CHARLLM_PARALLEL_PARALLEL_CONFIG_HH
