// Fixture: lib-iostream must fire on the include.
#include <iostream>

namespace fixture {

void
shout()
{
    std::cout << "library code must not do this\n";
}

} // namespace fixture
