#include "parallel/rank_mapper.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace charllm {
namespace parallel {

void
addPermutationProblems(Problems& problems, const std::vector<int>& perm,
                       const ParallelConfig& par)
{
    // In double: exact below 2^53, and no overflow on absurd widths.
    const double world = 1.0 * par.tp * par.dp * par.pp;
    bool sized = static_cast<double>(perm.size()) == world;
    require(problems, sized, "devicePermutation has ", perm.size(),
            " entries for a world of ", world);
    if (!sized || perm.empty())
        return;
    std::vector<int> ids = perm;
    std::sort(ids.begin(), ids.end());
    require(problems,
            ids.front() == 0 && ids.back() == world - 1 &&
                std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
            "devicePermutation is not a permutation of devices 0..",
            world - 1);
}

RankMapper::RankMapper(const ParallelConfig& config) : cfg(config)
{
    cfg.validate();
    devicePerm.resize(static_cast<std::size_t>(cfg.worldSize()));
    std::iota(devicePerm.begin(), devicePerm.end(), 0);
    deviceRank = devicePerm;
}

void
RankMapper::setDevicePermutation(std::vector<int> perm)
{
    Problems problems;
    addPermutationProblems(problems, perm, cfg);
    CHARLLM_ASSERT(problems.empty(), problems.front());
    devicePerm = std::move(perm);
    deviceRank.assign(devicePerm.size(), -1);
    for (std::size_t r = 0; r < devicePerm.size(); ++r)
        deviceRank[static_cast<std::size_t>(devicePerm[r])] =
            static_cast<int>(r);
    ++placementChanges;
}

void
RankMapper::swapDevices(int dev_a, int dev_b)
{
    CHARLLM_ASSERT(dev_a >= 0 && dev_a < cfg.worldSize() &&
                       dev_b >= 0 && dev_b < cfg.worldSize(),
                   "device id out of range: ", dev_a, ", ", dev_b);
    if (dev_a == dev_b)
        return;
    int rank_a = rankOf(dev_a);
    int rank_b = rankOf(dev_b);
    devicePerm[static_cast<std::size_t>(rank_a)] = dev_b;
    devicePerm[static_cast<std::size_t>(rank_b)] = dev_a;
    deviceRank[static_cast<std::size_t>(dev_a)] = rank_b;
    deviceRank[static_cast<std::size_t>(dev_b)] = rank_a;
    ++placementChanges;
}

int
RankMapper::deviceOf(int rank) const
{
    return devicePerm[static_cast<std::size_t>(rank)];
}

int
RankMapper::rankOf(int device) const
{
    return deviceRank[static_cast<std::size_t>(device)];
}

RankCoords
RankMapper::coordsOf(int rank) const
{
    // Rank layout (fastest to slowest): tp, dp (with ep as its inner
    // sub-blocks), pp.
    RankCoords c;
    c.tpIdx = rank % cfg.tp;
    c.dpIdx = (rank / cfg.tp) % cfg.dp;
    c.ppIdx = rank / (cfg.tp * cfg.dp);
    return c;
}

int
RankMapper::rankFromCoords(const RankCoords& coords) const
{
    return coords.tpIdx + cfg.tp * (coords.dpIdx + cfg.dp * coords.ppIdx);
}

std::vector<int>
RankMapper::tpGroupDevices(int rank) const
{
    RankCoords c = coordsOf(rank);
    std::vector<int> devices;
    devices.reserve(static_cast<std::size_t>(cfg.tp));
    for (int t = 0; t < cfg.tp; ++t) {
        RankCoords peer = c;
        peer.tpIdx = t;
        devices.push_back(deviceOf(rankFromCoords(peer)));
    }
    return devices;
}

std::vector<int>
RankMapper::dpGroupDevices(int rank) const
{
    RankCoords c = coordsOf(rank);
    std::vector<int> devices;
    devices.reserve(static_cast<std::size_t>(cfg.dp));
    for (int d = 0; d < cfg.dp; ++d) {
        RankCoords peer = c;
        peer.dpIdx = d;
        devices.push_back(deviceOf(rankFromCoords(peer)));
    }
    return devices;
}

std::vector<int>
RankMapper::epGroupDevices(int rank) const
{
    RankCoords c = coordsOf(rank);
    int block = (c.dpIdx / cfg.ep) * cfg.ep;
    std::vector<int> devices;
    devices.reserve(static_cast<std::size_t>(cfg.ep));
    for (int e = 0; e < cfg.ep; ++e) {
        RankCoords peer = c;
        peer.dpIdx = block + e;
        devices.push_back(deviceOf(rankFromCoords(peer)));
    }
    return devices;
}

int
failoverPeer(const RankMapper& mapper, int gpu, int gpus_per_node)
{
    int node = gpu / gpus_per_node;
    int peer = -1, best_pp = -1;
    for (int d = node * gpus_per_node; d < (node + 1) * gpus_per_node;
         ++d) {
        if (d == gpu)
            continue;
        int pp = mapper.coordsOf(mapper.rankOf(d)).ppIdx;
        if (pp >= best_pp) {
            best_pp = pp;
            peer = d;
        }
    }
    return peer;
}

} // namespace parallel
} // namespace charllm
