/**
 * @file
 * Rank-to-device mapping and communication-group construction in the
 * Megatron/NeMo order TP -> EP -> DP -> PP (paper Sec. 3.1): tensor
 * ranks vary fastest across consecutive device ids, pipeline stages
 * slowest. This ordering is what decides whether TP/EP groups stay
 * inside a node.
 */

#ifndef CHARLLM_PARALLEL_RANK_MAPPER_HH
#define CHARLLM_PARALLEL_RANK_MAPPER_HH

#include <vector>

#include "parallel/parallel_config.hh"

namespace charllm {
namespace parallel {

/** Logical coordinates of one rank. */
struct RankCoords
{
    int tpIdx = 0;
    int dpIdx = 0;
    int ppIdx = 0;

    bool
    operator==(const RankCoords& o) const
    {
        return tpIdx == o.tpIdx && dpIdx == o.dpIdx && ppIdx == o.ppIdx;
    }
};

/** Append to @p problems a line if @p perm does not permute @p par's
 *  devices (O(n log n), one copy of @p perm). */
void addPermutationProblems(Problems& problems, const std::vector<int>& perm,
                            const ParallelConfig& par);

/**
 * Maps logical ranks to devices and enumerates communication groups.
 * An optional device permutation supports thermal-aware placement
 * (Sec. 6): logical rank r executes on device devicePerm[r].
 */
class RankMapper
{
  public:
    explicit RankMapper(const ParallelConfig& config);

    /** Install a custom rank -> device permutation. */
    void setDevicePermutation(std::vector<int> perm);

    /**
     * Swap the ranks mapped to two devices (elastic re-mapping after
     * a fault): the logical program is untouched, only the placement
     * changes, taking effect the next time a program is built.
     */
    void swapDevices(int dev_a, int dev_b);

    /** Bumped by every placement change: programs built against an
     *  older version are stale. */
    std::uint64_t placementVersion() const { return placementChanges; }

    const ParallelConfig& config() const { return cfg; }
    int worldSize() const { return cfg.worldSize(); }

    /** Device executing logical rank @p rank. */
    int deviceOf(int rank) const;

    /** Logical rank executing on device @p device. */
    int rankOf(int device) const;

    RankCoords coordsOf(int rank) const;
    int rankFromCoords(const RankCoords& coords) const;

    /** @name Communication groups (device ids, ascending rank order)
     * @{ */
    std::vector<int> tpGroupDevices(int rank) const;
    std::vector<int> dpGroupDevices(int rank) const;
    std::vector<int> epGroupDevices(int rank) const;
    /** @} */

  private:
    ParallelConfig cfg;
    std::vector<int> devicePerm; //!< rank -> device
    std::vector<int> deviceRank; //!< device -> rank
    std::uint64_t placementChanges = 0;
};

/**
 * Elastic-failover peer selection for a dead device: a same-node peer,
 * preferring one whose rank sits in the latest pipeline stage (bubble
 * slack absorbs part of the derate). Staying inside the node keeps
 * scale-up groups intact — a cross-node swap would force TP traffic
 * over IB and cost far more than the fault itself. Returns -1 when the
 * node has no other device. Used by faults::FaultInjector and
 * resil::RecoveryManager; pair with RankMapper::swapDevices.
 */
int failoverPeer(const RankMapper& mapper, int gpu, int gpus_per_node);

} // namespace parallel
} // namespace charllm

#endif // CHARLLM_PARALLEL_RANK_MAPPER_HH
