/**
 * @file
 * Shared liveness state for elastic data-parallel shrink/grow. One
 * ElasticWorld instance is the single source of truth both sides read:
 * resil::RecoveryManager marks replicas dead/alive as failures land
 * and spares arrive, and runtime::ProgramBuilder consults the mask on
 * every build to emit work only for surviving replicas. The capacity
 * factor it reports feeds the goodput ledger's degraded-time
 * accounting, so "useful work at reduced width" stays an exact,
 * conserved quantity rather than a heuristic.
 */

#ifndef CHARLLM_PARALLEL_ELASTIC_WORLD_HH
#define CHARLLM_PARALLEL_ELASTIC_WORLD_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/logging.hh"
#include "parallel/parallel_config.hh"

namespace charllm {
namespace parallel {

/** Append to @p problems a line if a DP width of @p dp cannot shrink. */
inline void
addElasticProblems(Problems& problems, int dp)
{
    require(problems, dp >= 2, "elastic DP shrink requires dp >= 2 (got dp=",
            dp, "): a single replica cannot shrink");
}

class ElasticWorld
{
  public:
    /**
     * @param dp              full (healthy) data-parallel width
     * @param global_batch    healthy global batch in samples
     * @param microbatch_size samples per microbatch
     * @param rebalance_batch when degraded, spread the full global
     *        batch over the survivors (more microbatches per replica)
     *        instead of shrinking the effective batch
     */
    ElasticWorld(int dp, int global_batch, int microbatch_size,
                 bool rebalance_batch)
        : dead(static_cast<std::size_t>(std::max(dp, 0)), 0), dpWidth(dp),
          globalBatch(global_batch), microbatch(microbatch_size),
          rebalanceBatch(rebalance_batch)
    {
        Problems problems;
        addElasticProblems(problems, dp);
        addBatchProblems(problems, dp, global_batch, microbatch_size);
        CHARLLM_ASSERT(problems.empty(), problems.front());
    }

    int dpSize() const { return dpWidth; }

    int
    aliveReplicas() const
    {
        int alive = 0;
        for (char d : dead)
            alive += d == 0 ? 1 : 0;
        return alive;
    }

    bool degraded() const { return aliveReplicas() < dpWidth; }

    bool
    replicaDead(int dp_idx) const
    {
        return dead[static_cast<std::size_t>(dp_idx)] != 0;
    }

    void
    markDead(int dp_idx)
    {
        CHARLLM_ASSERT(!replicaDead(dp_idx), "replica ", dp_idx,
                       " is already dead");
        dead[static_cast<std::size_t>(dp_idx)] = 1;
        CHARLLM_ASSERT(aliveReplicas() >= 1,
                       "elastic shrink cannot remove the last replica");
    }

    void
    markAlive(int dp_idx)
    {
        CHARLLM_ASSERT(replicaDead(dp_idx), "replica ", dp_idx,
                       " is not dead");
        dead[static_cast<std::size_t>(dp_idx)] = 0;
    }

    bool rebalance() const { return rebalanceBatch; }

    /** Microbatches per replica at full width. */
    int
    healthyMicrobatches() const
    {
        return globalBatch / dpWidth / microbatch;
    }

    /**
     * Microbatches per surviving replica this iteration. Without
     * rebalancing each survivor keeps its healthy share (the global
     * batch shrinks with the world); with rebalancing the survivors
     * split the full batch, rounded up to whole microbatches.
     */
    int
    effectiveMicrobatches() const
    {
        int alive = aliveReplicas();
        if (!rebalanceBatch || alive == dpWidth)
            return healthyMicrobatches();
        int per_replica = (globalBatch + alive - 1) / alive;
        return (per_replica + microbatch - 1) / microbatch;
    }

    /**
     * Fraction of healthy per-iteration sample throughput the current
     * world delivers: alive * effectiveMicrobatches over the healthy
     * dp * microbatches. 1.0 when whole; degraded seconds weighted by
     * this factor are what the goodput ledger counts as effective
     * useful work.
     */
    double
    capacityFactor() const
    {
        int alive = aliveReplicas();
        if (alive == dpWidth)
            return 1.0;
        double healthy = static_cast<double>(dpWidth) *
                         static_cast<double>(healthyMicrobatches());
        double now = static_cast<double>(alive) *
                     static_cast<double>(effectiveMicrobatches());
        return std::min(1.0, now / healthy);
    }

  private:
    std::vector<char> dead; //!< 1 = replica removed from the world
    int dpWidth;
    int globalBatch;
    int microbatch;
    bool rebalanceBatch;
};

} // namespace parallel
} // namespace charllm

#endif // CHARLLM_PARALLEL_ELASTIC_WORLD_HH
