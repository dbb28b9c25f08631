// Known-bad fixture: domain quantities declared as raw integers.
#include <cstdint>

namespace fixture {

std::uint64_t
nextCycle(std::uint64_t cycle)
{
    std::uint32_t row = 0;
    std::uint64_t addr = cycle * 64;
    return cycle + row + addr;
}

struct State
{
    std::uint64_t curCycle = 0;
    std::uint32_t aggressorRow = 0;
    std::uint64_t bankId = 0;
    std::uint32_t openRow, hotRow;
};

// Legitimate raw integers: counts and sizes must NOT fire.
std::uint64_t
countThings(std::uint64_t numRows, std::uint32_t rowsPerBank,
            std::uint64_t actCountLimitPerWindow)
{
    return numRows + rowsPerBank + actCountLimitPerWindow;
}

// A waived declaration must NOT fire:
std::uint64_t wireRow = 0; // analyze: allow(raw-domain-type)

} // namespace fixture
