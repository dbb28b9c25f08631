/**
 * @file
 * Differential test: the production CounterTable (bucket-indexed for
 * O(1) updates) against a deliberately naive, obviously-correct
 * Misra-Gries reference that follows the paper's Figure 1 flowchart
 * with linear scans, and the Space-Saving tracker against a linear-scan
 * Space-Saving reference (Section VI). Any divergence in observable
 * state across long random streams is a bug in one of them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common/random.hh"
#include "core/counter_table.hh"
#include "core/tracker_counter_table.hh"

namespace graphene {
namespace core {
namespace {

/** Straight-line transcription of the Figure 1 flowchart. */
class ReferenceMisraGries
{
  public:
    explicit ReferenceMisraGries(unsigned entries)
        : _entries(entries)
    {
    }

    void
    activate(Row addr)
    {
        // Hit?
        for (auto &e : _table) {
            if (e.first == addr) {
                ++e.second;
                return;
            }
        }
        // Free or replaceable slot (count == spillover)?
        if (_table.size() < _entries) {
            // Model the hardware's invalid entries as count 0, which
            // only matches while the spillover count is still 0.
            if (_spillover == 0) {
                _table.emplace_back(addr, 1);
                return;
            }
        }
        for (auto &e : _table) {
            if (e.second == _spillover) {
                e.first = addr;
                ++e.second;
                return;
            }
        }
        ++_spillover;
    }

    std::uint64_t
    count(Row addr) const
    {
        for (const auto &e : _table)
            if (e.first == addr)
                return e.second;
        return 0;
    }

    std::uint64_t spillover() const { return _spillover; }

    /** Multiset of all estimated counts (invalid slots count as 0). */
    std::vector<std::uint64_t>
    countMultiset() const
    {
        std::vector<std::uint64_t> counts;
        for (const auto &e : _table)
            counts.push_back(e.second);
        counts.resize(_entries, 0);
        std::sort(counts.begin(), counts.end());
        return counts;
    }

  private:
    unsigned _entries;
    std::uint64_t _spillover = 0;
    std::vector<std::pair<Row, std::uint64_t>> _table;
};

/**
 * Space-Saving by linear scan: a miss fills the next free slot, then
 * evicts the lowest-numbered slot among the minimum counts, and the
 * newcomer inherits that minimum plus one.
 */
class ReferenceSpaceSaving
{
  public:
    explicit ReferenceSpaceSaving(unsigned entries)
        : _entries(entries)
    {
    }

    std::uint64_t
    activate(Row addr)
    {
        ++_streamLength;
        for (auto &e : _table)
            if (e.first == addr)
                return ++e.second;
        if (_table.size() < _entries) {
            _table.emplace_back(addr, 1);
            return 1;
        }
        std::size_t victim = 0;
        for (std::size_t i = 1; i < _table.size(); ++i)
            if (_table[i].second < _table[victim].second)
                victim = i;
        _table[victim].first = addr;
        return ++_table[victim].second;
    }

    std::uint64_t
    count(Row addr) const
    {
        for (const auto &e : _table)
            if (e.first == addr)
                return e.second;
        return 0;
    }

    /** Smallest count, 0 while a slot is still free. */
    std::uint64_t
    minCount() const
    {
        if (_table.size() < _entries)
            return 0;
        std::uint64_t min = _table.front().second;
        for (const auto &e : _table)
            min = std::min(min, e.second);
        return min;
    }

    std::uint64_t streamLength() const { return _streamLength; }

    void
    reset()
    {
        _table.clear();
        _streamLength = 0;
    }

  private:
    unsigned _entries;
    std::uint64_t _streamLength = 0;
    std::vector<std::pair<Row, std::uint64_t>> _table;
};

class DifferentialStream
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(DifferentialStream, ObservableStateAlwaysMatches)
{
    const auto [entries, seed] = GetParam();
    CounterTable table(entries);
    ReferenceMisraGries reference(entries);
    Rng rng(seed);

    for (int i = 0; i < 30000; ++i) {
        // A mix of hot rows and a long uniform tail.
        const Row row = rng.bernoulli(0.4)
                            ? Row{static_cast<Row::rep>(rng.nextRange(3))}
                            : Row{static_cast<Row::rep>(rng.nextRange(500))};
        table.processActivation(row);
        reference.activate(row);

        ASSERT_EQ(table.spilloverCount().value(), reference.spillover())
            << "step " << i;

        if (i % 53 == 0) {
            // The replacement victim among equal-count entries is an
            // implementation choice, so per-address contents may
            // legitimately differ; what must match exactly is the
            // multiset of estimated counts (the algorithm's state up
            // to that choice).
            std::vector<std::uint64_t> counts;
            for (const auto &e : table.entries())
                counts.push_back(e.count.value());
            std::sort(counts.begin(), counts.end());
            ASSERT_EQ(counts, reference.countMultiset())
                << "step " << i;
        }
    }
}

TEST_P(DifferentialStream, SpaceSavingMatchesReference)
{
    // Unlike Misra-Gries, the eviction tie-break (lowest slot among
    // the minimum counts) is pinned here, so per-row estimates must
    // match exactly, across window resets too.
    const auto [entries, seed] = GetParam();
    CounterTableTracker tracker(entries,
                                CounterTable::Policy::SpaceSaving);
    ReferenceSpaceSaving reference(entries);
    Rng rng(seed);
    std::vector<Row> seen;
    std::unordered_set<Row> seen_set;

    for (int i = 0; i < 12000; ++i) {
        if (i % 2500 == 2499) {
            tracker.reset();
            reference.reset();
            seen.clear();
            seen_set.clear();
        }
        const Row row = rng.bernoulli(0.4)
                            ? Row{static_cast<Row::rep>(rng.nextRange(3))}
                            : Row{static_cast<Row::rep>(rng.nextRange(500))};
        if (seen_set.insert(row).second)
            seen.push_back(row);
        ASSERT_EQ(tracker.processActivation(row).value(),
                  reference.activate(row))
            << "step " << i;
        ASSERT_EQ(tracker.table().minEstimatedCount().value(),
                  reference.minCount())
            << "step " << i;
        ASSERT_EQ(tracker.table().streamLength().value(),
                  reference.streamLength())
            << "step " << i;
        for (const Row r : seen) {
            ASSERT_EQ(tracker.estimatedCount(r).value(),
                      reference.count(r))
                << "row " << r << " step " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Tables, DifferentialStream,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 8u, 32u),
                       ::testing::Values(11u, 222u, 3333u)),
    [](const auto &info) {
        return "n" + std::to_string(std::get<0>(info.param)) + "_s" +
               std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace core
} // namespace graphene
