// Fixture: det-ambient-entropy must fire on every source; the
// string-literal line is the lexer regression — a `//` inside the
// literal must not hide the banned construct after it.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

namespace fixture {

unsigned
entropy()
{
    const char* docs = "https://example.com/docs"; std::random_device rd;
    (void)docs;
    unsigned r = static_cast<unsigned>(rand());
    r += static_cast<unsigned>(std::rand());
    const char* home = getenv("HOME");
    (void)home;
    auto t0 = std::chrono::steady_clock::now();
    (void)t0;
    r += static_cast<unsigned>(time(nullptr));
    return r + rd();
}

} // namespace fixture
