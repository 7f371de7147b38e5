#include "resil/checkpoint.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace charllm {
namespace resil {

void
addCheckpointProblems(Problems& problems, Bytes rank_state,
                      const StoragePath& path, int gpus_per_node,
                      int world_size)
{
    require(problems, rank_state.value() > 0.0,
            "a checkpoint needs a positive rank state (got ",
            rank_state.value(), " bytes)");
    require(problems, gpus_per_node >= 1 && world_size >= 1,
            "a checkpoint needs >= 1 GPU per node and in the world (got ",
            gpus_per_node, " and ", world_size, ")");
    require(problems,
            path.storeBw.value() > 0.0 && path.pcieBw.value() > 0.0 &&
                path.nicBw.value() > 0.0,
            "checkpoint.storeGBps and the PCIe and NIC bandwidths must be "
            "positive (got ", path.storeBw.value() / 1e9, " GB/s)");
}

CheckpointModel::CheckpointModel(Bytes rank_state,
                                 const StoragePath& storage_path,
                                 int gpus_per_node, int world_size)
    : state(rank_state), path(storage_path),
      gpusPerNode(gpus_per_node), worldSize(world_size)
{
    Problems problems;
    addCheckpointProblems(problems, state, path, gpusPerNode, worldSize);
    CHARLLM_ASSERT(problems.empty(), problems.front());
}

Bytes
CheckpointModel::rankStateBytes(const model::TransformerConfig& m,
                                const parallel::ParallelConfig& par,
                                const parallel::MemoryOptions& opts)
{
    parallel::MemoryPlanner planner(m, par);
    parallel::MemoryBreakdown worst = planner.worstStage(opts);
    return Bytes(worst.weights + worst.optimizer);
}

BytesPerSec
CheckpointModel::effectiveRankBandwidth() const
{
    double per_rank_nic =
        path.nicBw.value() / static_cast<double>(gpusPerNode);
    double per_rank_store =
        path.storeBw.value() / static_cast<double>(worldSize);
    return BytesPerSec(std::min(
        {path.pcieBw.value(), per_rank_nic, per_rank_store}));
}

Seconds
CheckpointModel::writeSeconds() const
{
    return Seconds(state.value() / effectiveRankBandwidth().value());
}

Seconds
CheckpointModel::readSeconds() const
{
    return Seconds(state.value() / effectiveRankBandwidth().value());
}

Seconds
CheckpointModel::youngDalyInterval(Seconds write_cost, Seconds mtbf)
{
    CHARLLM_ASSERT(write_cost.value() > 0.0,
                   "Young/Daly needs a positive write cost");
    if (mtbf.value() <= 0.0)
        return Seconds(std::numeric_limits<double>::infinity());
    return Seconds(
        std::sqrt(2.0 * write_cost.value() * mtbf.value()));
}

} // namespace resil
} // namespace charllm
