// Known-bad: stream IO and a throw inside the hot region.
#include <iostream>
#include <stdexcept>

namespace fx {

void
tick(int id)
{
    if (id < 0)
        throw std::runtime_error("bad id"); // perf-io-hot
    std::cout << "tick " << id << "\n"; // perf-io-hot; analyze: allow(direct-logging)
}

} // namespace fx
