// Known-bad fixture: unwaived unordered_map iteration in a hot path.
#include <cstdint>
#include <unordered_map>

namespace fixture {

struct Tracker
{
    std::unordered_map<std::uint32_t, std::uint64_t> entries;

    std::uint64_t
    sum() const
    {
        std::uint64_t total = 0;
        for (const auto &kv : entries)
            total += kv.second;
        return total;
    }

    std::uint64_t
    first() const
    {
        return entries.begin()->second + this->entries.cbegin()->second;
    }

    std::uint64_t
    auditedSum() const
    {
        std::uint64_t total = 0;
        // Order-independent: a pure sum, commutative.
        // analyze: allow(unordered-map-iteration)
        for (const auto &kv : this->entries)
            total += kv.second;
        return total;
    }
};

} // namespace fixture
