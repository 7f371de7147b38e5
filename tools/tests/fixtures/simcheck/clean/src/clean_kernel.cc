// Fixture: deterministic, allocation-free counterparts of every bad
// pattern: seeded RNG, id-keyed ordered map, stable-id ordering, and a
// dispatch root that only writes through preallocated storage.
// Prose mentions rand(), std::random_device, getenv, steady_clock and
// #include <iostream> only in comments, which must not trip the rules.
/* Block comments mentioning time(NULL) must not trip either. */
#include <algorithm>
#include <array>
#include <map>
#include <random>
#include <vector>

namespace fixture {

// A string containing a protocol separator is not a comment start.
const char* kDocsUrl = "https://example.com/docs";

struct Node {
    int id;
};

double
roll(unsigned seed)
{
    std::mt19937 gen(seed);  // explicit seed from config
    return static_cast<double>(gen());
}

int
countById(const Node& a, const Node& b)
{
    std::map<int, int> byId;  // keyed by stable id, not pointer
    byId[a.id] = 1;
    byId[b.id] = 2;
    int total = 0;
    for (const auto& kv : byId)  // ordered container: fine to iterate
        total += kv.second;
    return total;
}

void
sortThem(std::vector<Node*>& nodes)
{
    std::sort(nodes.begin(), nodes.end(),
              [](const Node* a, const Node* b) { return a->id < b->id; });
}

// A member call named like a libc entropy source is the class's own API.
template <typename Source>
unsigned
draw(Source& source)
{
    return source.rand();
}

class EventQueue {
public:
    void runOne();

private:
    std::array<int, 64> slots{};
    int used = 0;
};

void
EventQueue::runOne()
{
    slots[static_cast<unsigned>(used % 64)] = used;  // no allocation
    ++used;
}

} // namespace fixture
