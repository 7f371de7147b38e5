// Fixture: a bench calling the functions clean_kernel.cc defines (not
// compiled), so dead-export stays quiet on the clean tree. A call from
// bench/, examples/ or hostbench/ counts as a use; tests/ never do.
#include <vector>

namespace fixture {
struct Node;
double roll(unsigned seed);
int countById(const Node& a, const Node& b);
void sortThem(std::vector<Node*>& nodes);
}

int
main()
{
    fixture::EventQueue queue;
    queue.runOne();
    std::vector<fixture::Node*> nodes;
    fixture::sortThem(nodes);
    return static_cast<int>(fixture::roll(7)) +
           fixture::countById(*nodes[0], *nodes[1]);
}
