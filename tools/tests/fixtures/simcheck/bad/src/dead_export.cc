// Fixture: dead-export fires on Meter::unused, which only its own
// declaration and body name; read (called from bench/), helper (called
// by read) and viaMacro (called in a macro) stay quiet.
#include "dead_export.hh"

namespace fixture {

int
Meter::unused(int depth)
{
    return depth > 0 ? unused(depth - 1) : 0;
}

int
Meter::read() const
{
    return helper(2);
}

int
helper(int x)
{
    return x;
}

int
viaMacro()
{
    return 1;
}

} // namespace fixture
