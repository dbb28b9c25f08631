// Fixture that must produce zero findings: strong types, seeded RNG
// mentioned only in comments ("std::rand would be bad"), ordered
// containers, doubles, and a string literal containing float.
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

namespace fixture {

struct Cycle
{
    std::uint64_t v;
};

double
meanLatency(const std::map<std::uint32_t, std::uint64_t> &latencies)
{
    double total = 0.0;
    std::uint64_t n = 0;
    for (const auto &kv : latencies) {
        total += static_cast<double>(kv.second);
        ++n;
    }
    const std::string note = "float and std::rand() in a string";
    (void)note;
    return n ? total / static_cast<double>(n) : 0.0;
}

// Counts stay raw: these identifiers must not trip raw-domain-type.
std::uint64_t
budget(std::uint64_t numRows, std::uint64_t rowsPerBank)
{
    return numRows * rowsPerBank;
}

// Lookups into an unordered_map are fine, and iterating a different
// container whose name merely ends in the map's name is not
// iterating the map.
struct Table
{
    std::unordered_map<std::uint32_t, std::uint64_t> entries;
    std::map<std::uint32_t, std::uint64_t> old_entries;

    std::uint64_t
    oldest() const
    {
        return old_entries.begin()->second + entries.at(0);
    }
};

} // namespace fixture
