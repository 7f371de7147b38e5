/**
 * @file
 * Training-run options: batching, optimization toggles (paper Table 2
 * / Sec. 4.3), and schedule shaping used by the thermal-aware
 * placement study (Sec. 6).
 */

#ifndef CHARLLM_RUNTIME_OPTIONS_HH
#define CHARLLM_RUNTIME_OPTIONS_HH

#include <vector>

namespace charllm {
namespace runtime {

/** Options controlling one training (or inference) run. */
struct TrainOptions
{
    int microbatchSize = 1;
    int globalBatchSize = 128;

    /** Activation recomputation ("act"). */
    bool actRecompute = false;

    /** Compute-communication overlap ("cc"). */
    bool ccOverlap = false;

    /** ZeRO-1 distributed optimizer (off for MoE, per the paper). */
    bool zero1 = true;

    /** Forward-only execution (distributed inference, Sec. 7.2). */
    bool inference = false;

    /**
     * Topology-aware ring collectives (the paper's recommendation):
     * node-spanning AllReduce/AllGather/ReduceScatter run
     * hierarchically, keeping most volume on the scale-up fabric.
     */
    bool topologyAwareCollectives = false;

    /**
     * Per-stage transformer layer counts; empty = uniform split.
     * Used by asymmetric thermal-aware placement (Sec. 6).
     */
    std::vector<int> stageLayers;

    /**
     * Force data chunking on pipeline SendRecv even when the boundary
     * tensor is sliced across TP ranks (counterfactual for the
     * paper's Sec. 4.2 finding that TP+PP emits sparse, un-chunked
     * messages).
     */
    bool chunkP2p = false;

    /**
     * Interleaved pipeline scheduling (Megatron virtual stages): each
     * rank hosts this many model chunks, shrinking the pipeline
     * bubble from (pp-1)/(m+pp-1) toward (pp-1)/(v*m+pp-1) at the
     * cost of v times more boundary communication. 1 = classic 1F1B.
     * Requires pp > 1, layers divisible by pp*v, and microbatch count
     * divisible by pp.
     */
    int virtualStages = 1;
};

} // namespace runtime
} // namespace charllm

#endif // CHARLLM_RUNTIME_OPTIONS_HH
