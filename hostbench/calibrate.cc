// A fixed calibration kernel that gauges how fast the host runs right
// now. The host this benchmark runs on is shared, and its speed drifts
// by tens of percent over minutes; timing this kernel next to every
// pass lets end-to-end times be stated at one reference speed. The
// kernel uses none of the simulator's code, so no change under src/
// can move it: it mixes what the simulator's hot loops do, namely
// dependent loads over a working set larger than L2, binary-heap
// scheduling and small node allocations.

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <vector>

#include "hostbench.hh"

namespace hostbench {

namespace {

std::uint64_t
lcg(std::uint64_t* state)
{
    *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
    return *state >> 33;
}

/** A single random cycle over 1 Mi slots (Sattolo's shuffle). */
const std::vector<std::uint32_t>&
chaseRing()
{
    static const std::vector<std::uint32_t> ring = [] {
        constexpr std::uint32_t kSlots = 1u << 20;
        std::vector<std::uint32_t> order(kSlots);
        for (std::uint32_t i = 0; i < kSlots; ++i)
            order[i] = i;
        std::uint64_t state = 1;
        for (std::uint32_t i = kSlots - 1; i > 0; --i)
            std::swap(order[i], order[lcg(&state) % i]);
        std::vector<std::uint32_t> next(kSlots);
        for (std::uint32_t i = 0; i < kSlots; ++i)
            next[order[i]] = order[(i + 1) % kSlots];
        return next;
    }();
    return ring;
}

volatile std::uint64_t sink = 0;

} // namespace

double
calibrationSeconds()
{
    const auto& ring = chaseRing();
    double start = hostSeconds();

    std::uint32_t at = 0;
    for (int i = 0; i < (1 << 20); ++i)
        at = ring[at];

    std::uint64_t state = at;
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    for (int i = 0; i < 4096; ++i)
        heap.push(lcg(&state));
    for (int i = 0; i < (1 << 17); ++i) {
        std::uint64_t t = heap.top();
        heap.pop();
        heap.push(t + lcg(&state) % 100000);
    }

    std::map<std::uint64_t, std::uint64_t> nodes;
    for (int i = 0; i < (1 << 14); ++i)
        nodes.emplace(lcg(&state), heap.top());

    sink = at + heap.top() + nodes.size();
    return hostSeconds() - start;
}

} // namespace hostbench
