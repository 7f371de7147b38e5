// Fixture: a bench calling the library (not compiled). dead-export
// counts a call from bench/, examples/ or hostbench/ as a use.
#include "dead_export.hh"

int
main()
{
    return fixture::Meter().read() + FIXTURE_READ_TWICE();
}
