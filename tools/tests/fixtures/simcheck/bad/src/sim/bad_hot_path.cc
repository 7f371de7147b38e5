// Fixture: hot-path-alloc must fire on both constructs in src/sim/.
#include <functional>
#include <memory>

namespace fixture {

struct Event {
    int id;
};

std::function<void()> g_callback;

void
record()
{
    auto ev = std::make_shared<Event>();
    (void)ev;
}

} // namespace fixture
