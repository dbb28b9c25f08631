// Known-bad fixture: nondeterministic / time-seeded randomness.
#include <cstdlib>
#include <ctime>
#include <random>

namespace fixture {

int
roll()
{
    std::srand(static_cast<unsigned>(time(nullptr)));
    std::random_device rd;
    std::mt19937 gen(rd());
    return std::rand() + static_cast<int>(gen());
}

int
waivedRoll()
{
    // analyze: allow(nondeterministic-rng)
    std::random_device seeder;
    return static_cast<int>(seeder());
}

} // namespace fixture
