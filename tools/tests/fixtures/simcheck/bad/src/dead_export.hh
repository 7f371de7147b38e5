// Fixture: declarations for dead_export.cc. A declaration alone does
// not count as a use, and neither does a function naming itself.
#ifndef FIXTURE_DEAD_EXPORT_HH
#define FIXTURE_DEAD_EXPORT_HH

namespace fixture {

class Meter {
public:
    int read() const;
    static int unused(int depth);
};

int helper(int x);
int viaMacro();

// A call inside a macro body is a use.
#define FIXTURE_READ_TWICE() (fixture::viaMacro() * 2)

} // namespace fixture

#endif
