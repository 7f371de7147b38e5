/**
 * @file
 * Checkpoint cost model: how long a periodic training checkpoint takes
 * and how often to take one. The per-rank state (weights + optimizer
 * shard, from parallel::MemoryPlanner) is pushed over the storage path
 * PCIe -> NIC -> backing store; the write cost is the state size over
 * the bottleneck of that path. The Young/Daly helper turns a write
 * cost and a cluster MTBF into the first-order optimal interval
 * sqrt(2 * C * MTBF).
 */

#ifndef CHARLLM_RESIL_CHECKPOINT_HH
#define CHARLLM_RESIL_CHECKPOINT_HH

#include "common/quantity.hh"
#include "model/transformer_config.hh"
#include "parallel/memory_planner.hh"
#include "parallel/parallel_config.hh"

namespace charllm {
namespace resil {

/** Bandwidths along the checkpoint storage path. */
struct StoragePath
{
    BytesPerSec pcieBw;  //!< per GPU (host staging copy)
    BytesPerSec nicBw;   //!< per node, shared by the node's ranks
    BytesPerSec storeBw; //!< aggregate store backend, shared by all
};

/** Checkpointing policy knobs (see core::ExperimentConfig). */
struct CheckpointPolicy
{
    /** Seconds of training between checkpoint starts; <= 0 selects
     *  the Young/Daly optimum from the cluster's fatal MTBF. */
    double intervalSec = 0.0;
    /** Async: only a short quiesce stall blocks training while the
     *  write proceeds in the background; the checkpoint becomes a
     *  valid rollback target only once the write completes. */
    bool async = false;
    double quiesceSec = 0.05; //!< async snapshot stall per checkpoint
    /** Aggregate store-backend bandwidth (decimal GB/s). */
    double storeGBps = 100.0;
};

/** Append to @p problems each range CheckpointModel needs of its
 *  arguments. */
void addCheckpointProblems(Problems& problems, Bytes rank_state,
                           const StoragePath& path, int gpus_per_node,
                           int world_size);

/**
 * Cost model for one (model, parallelism, storage path) combination.
 * Pure arithmetic — all scheduling lives in RecoveryManager.
 */
class CheckpointModel
{
  public:
    CheckpointModel(Bytes rank_state, const StoragePath& path,
                    int gpus_per_node, int world_size);

    /** Persisted bytes per rank: worst-stage weights + optimizer
     *  shard (gradients and activations are not checkpointed). */
    static Bytes rankStateBytes(const model::TransformerConfig& m,
                                const parallel::ParallelConfig& par,
                                const parallel::MemoryOptions& opts);

    const StoragePath& storagePath() const { return path; }

    /** Per-rank bottleneck bandwidth along the storage path: all
     *  ranks write concurrently, so the NIC splits per node and the
     *  store backend splits across the world. */
    BytesPerSec effectiveRankBandwidth() const;

    /** Wall seconds for one full synchronous checkpoint write. */
    Seconds writeSeconds() const;

    /** Wall seconds to restore rank state on recovery (same path,
     *  read direction). */
    Seconds readSeconds() const;

    /**
     * Young/Daly first-order optimal checkpoint interval
     * sqrt(2 * C * M) for write cost @p write_cost and cluster-level
     * fatal MTBF @p mtbf; infinity when @p mtbf is non-positive
     * (never checkpoint on a fleet that cannot fail).
     */
    static Seconds youngDalyInterval(Seconds write_cost, Seconds mtbf);

  private:
    Bytes state;
    StoragePath path;
    int gpusPerNode;
    int worldSize;
};

} // namespace resil
} // namespace charllm

#endif // CHARLLM_RESIL_CHECKPOINT_HH
