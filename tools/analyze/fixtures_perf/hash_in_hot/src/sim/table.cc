// Known-bad: hashed-container lookup inside the hot region.
#include <cstdint>
#include <unordered_map>

namespace fx {

struct Table
{
    std::uint64_t
    tick(std::uint64_t row) // analyze: allow(raw-domain-type)
    {
        // Hashed lookup per tick: perf-hash-container.
        return ++_counts[row];
    }

    std::unordered_map<std::uint64_t, std::uint64_t> _counts;
};

} // namespace fx
