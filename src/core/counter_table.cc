#include "core/counter_table.hh"

#include <algorithm>
#include <iterator>
#include <limits>
#include <utility>

#include "check/contracts.hh"
#include "ckpt/io.hh"
#include "common/logging.hh"

namespace graphene {
namespace core {

CounterTable::CounterTable(unsigned num_entries, Policy policy)
    : _policy(policy)
{
    GRAPHENE_CHECK(num_entries > 0,
                   "counter table: need at least one entry");
    _entries.resize(num_entries);
    // All slots start at count 0; they live in bucket 0 so the first
    // misses naturally claim them in slot order (count 0 == initial
    // spillover 0, and the minimum count until the table fills).
    for (unsigned i = 0; i < num_entries; ++i)
        _buckets[ActCount{}].insert(i);
}

void
CounterTable::moveBucket(unsigned slot, ActCount from, ActCount to)
{
    auto it = _buckets.find(from);
    GRAPHENE_CHECK(it != _buckets.end() && it->second.erase(slot) != 0,
                   "counter table: bucket bookkeeping broken");
    // Hits and replacements move a slot up by one count, so the next
    // bucket is where `to` belongs: the hint makes that O(1).
    const auto next = std::next(it);
    if (it->second.empty())
        _buckets.erase(it);
    _buckets.try_emplace(next, to)->second.insert(slot);
}

CounterTable::Result
CounterTable::processActivation(Row addr)
{
    Result result;
    ++_streamLength;

    auto hit = _index.find(addr);
    if (hit != _index.end()) {
        // Row address HIT: increment the estimated count.
        Entry &e = _entries[hit->second];
        GRAPHENE_EXPECTS(e.count >= _spillover,
                         "resident count below spillover (Lemma 1 "
                         "precondition)");
        moveBucket(hit->second, e.count, e.count + ActCount{1});
        ++e.count;
        result.hit = true;
        result.estimatedCount = e.count;
        result.slot = hit->second;
        GRAPHENE_ENSURES(e.count > _spillover,
                         "hit must leave the count above spillover");
        return result;
    }

    // Entry replace: Misra-Gries takes an entry whose count equals
    // the spillover count, Space-Saving the minimum-count entry; the
    // lowest slot wins a tie and the old count carries over (+1).
    const bool misra_gries = _policy == Policy::MisraGries;
    auto bucket =
        misra_gries ? _buckets.find(_spillover) : _buckets.begin();
    if (bucket != _buckets.end() && !bucket->second.empty()) {
        const unsigned slot = *bucket->second.begin();
        Entry &e = _entries[slot];
        if (e.addr.isValid()) {
            // Erase only this slot's own mapping: after an injected
            // address fault two slots can alias one address, and the
            // mapping may belong to the other slot.
            auto old = _index.find(e.addr);
            if (old != _index.end() && old->second == slot)
                _index.erase(old);
        } else {
            ++_occupied;
        }
        GRAPHENE_EXPECTS(!misra_gries || e.count == _spillover,
                         "replacement candidate must sit exactly at "
                         "the spillover count (Figure 1 flow)");
        GRAPHENE_EXPECTS(misra_gries ||
                             e.count * _entries.size() <= _streamLength,
                         "evicted minimum exceeds W / N — the estimate "
                         "bound the protection sizing relies on");
        moveBucket(slot, e.count, e.count + ActCount{1});
        e.addr = addr;
        ++e.count;
        _index.emplace(addr, slot);
        result.inserted = true;
        result.estimatedCount = e.count;
        result.slot = slot;
        GRAPHENE_ENSURES(!misra_gries || result.estimatedCount ==
                                             _spillover + ActCount{1},
                         "inserted count must carry spillover + 1");
        return result;
    }

    // No replacement (Misra-Gries only: Space-Saving always has a
    // minimum): the spillover count absorbs the activation.
    ++_spillover;
    result.spilled = true;
    // Lemma 2: a spill means every entry is strictly hotter than the
    // spillover count, so spillover <= W / (Nentry + 1) holds.
    GRAPHENE_INVARIANT(_spillover * (_entries.size() + 1) <=
                           _streamLength,
                       "spillover exceeded W / (Nentry + 1)");
    return result;
}

void
CounterTable::reset()
{
    _index.clear();
    _buckets.clear();
    for (unsigned i = 0; i < _entries.size(); ++i) {
        _entries[i] = Entry{};
        _buckets[ActCount{}].insert(i);
    }
    _spillover = ActCount{};
    _streamLength = ActCount{};
    _occupied = 0;
    GRAPHENE_ENSURES(_index.empty() &&
                         minEstimatedCount() == ActCount{},
                     "reset must clear all tracked state");
}

bool
CounterTable::contains(Row addr) const
{
    return _index.find(addr) != _index.end();
}

ActCount
CounterTable::estimatedCount(Row addr) const
{
    auto it = _index.find(addr);
    return it == _index.end() ? ActCount{} : _entries[it->second].count;
}

ActCount
CounterTable::minEstimatedCount() const
{
    ActCount min = ActCount::max();
    for (const auto &e : _entries)
        min = e.count < min ? e.count : min;
    return min;
}

bool
CounterTable::corruptEntryAddress(unsigned slot, unsigned bit)
{
    GRAPHENE_CHECK(slot < _entries.size(),
                   "counter table: fault slot %u out of range", slot);
    GRAPHENE_CHECK(bit < 32,
                   "counter table: address fault bit %u out of range",
                   bit);
    Entry &e = _entries[slot];
    if (!e.addr.isValid())
        return false;
    const Row old = e.addr;
    const Row corrupted{old.value() ^ (1u << bit)};
    auto it = _index.find(old);
    if (it != _index.end() && it->second == slot)
        _index.erase(it);
    e.addr = corrupted;
    if (corrupted.isValid()) {
        // No-op when another slot already owns the corrupted address:
        // that slot keeps matching first and this one is shadowed.
        _index.emplace(corrupted, slot);
    } else {
        // The flip landed on the all-ones sentinel: the slot now
        // reads as empty.
        --_occupied;
    }
    return true;
}

void
CounterTable::corruptEntryCount(unsigned slot, unsigned bit)
{
    GRAPHENE_CHECK(slot < _entries.size(),
                   "counter table: fault slot %u out of range", slot);
    GRAPHENE_CHECK(bit < 64,
                   "counter table: count fault bit %u out of range",
                   bit);
    Entry &e = _entries[slot];
    const ActCount old = e.count;
    const ActCount corrupted{old.value() ^ (1ULL << bit)};
    moveBucket(slot, old, corrupted);
    e.count = corrupted;
}

void
CounterTable::corruptSpillover(unsigned bit)
{
    GRAPHENE_CHECK(bit < 64,
                   "counter table: spillover fault bit %u out of "
                   "range", bit);
    _spillover = ActCount{_spillover.value() ^ (1ULL << bit)};
}

Row
CounterTable::scrubResetEntry(unsigned slot)
{
    GRAPHENE_CHECK(slot < _entries.size(),
                   "counter table: scrub slot %u out of range", slot);
    Entry &e = _entries[slot];
    const Row old = e.addr;
    if (old.isValid()) {
        auto it = _index.find(old);
        if (it != _index.end() && it->second == slot)
            _index.erase(it);
        --_occupied;
    }
    moveBucket(slot, e.count, _spillover);
    e.addr = Row::invalid();
    e.count = _spillover;
    return old;
}

void
CounterTable::scrubSetSpillover(ActCount value)
{
    _spillover = value;
}

void
CounterTable::saveState(ckpt::Writer &w) const
{
    w.u64(_entries.size());
    for (const Entry &e : _entries) {
        w.u32(e.addr.value());
        w.u64(e.count.value());
    }
    // The address index is genuine state: after an injected address
    // fault two slots can alias one address and the index records
    // which slot the CAM match resolves to. Sorted by row for
    // deterministic bytes.
    std::vector<std::pair<Row, unsigned>> index(_index.begin(),
                                                _index.end());
    std::sort(index.begin(), index.end());
    w.u64(index.size());
    for (const auto &[row, slot] : index) {
        w.u32(row.value());
        w.u32(slot);
    }
    w.u64(_spillover.value());
    w.u64(_streamLength.value());
    w.u32(_occupied);
}

void
CounterTable::restoreState(ckpt::Reader &r)
{
    if (r.u64() != _entries.size()) {
        r.fail();
        return;
    }
    for (Entry &e : _entries) {
        e.addr = Row(r.u32());
        e.count = ActCount(r.u64());
    }
    _index.clear();
    const std::uint64_t index_size = r.boundedCount(_entries.size());
    for (std::uint64_t i = 0; i < index_size && !r.failed(); ++i) {
        const Row row{r.u32()};
        const unsigned slot = r.u32();
        if (slot >= _entries.size()) {
            r.fail();
            return;
        }
        _index.emplace(row, slot);
    }
    _spillover = ActCount(r.u64());
    _streamLength = ActCount(r.u64());
    _occupied = r.u32();
    _buckets.clear();
    for (unsigned i = 0; i < _entries.size(); ++i)
        _buckets[_entries[i].count].insert(i);
}

void
CounterTable::checkInvariants() const
{
    // Every estimated count >= spillover count (replacement candidates
    // always exist at exactly the spillover value or not at all).
    GRAPHENE_CHECK(minEstimatedCount() >= _spillover,
                   "a count fell below the spillover count");

    if (_policy == Policy::MisraGries) {
        // Lemma 2: spillover <= streamLength / (Nentry + 1).
        GRAPHENE_CHECK(_spillover * (_entries.size() + 1) <=
                           _streamLength,
                       "spillover exceeded W / (Nentry + 1)");
    } else {
        // Space-Saving: the minimum count <= streamLength / Nentry.
        GRAPHENE_CHECK(minEstimatedCount() * _entries.size() <=
                           _streamLength,
                       "minimum count exceeded W / Nentry");
    }

    // Conservation: spillover + sum(counts) == streamLength.
    ActCount sum = _spillover;
    for (const auto &e : _entries)
        sum += e.count;
    GRAPHENE_CHECK(sum == _streamLength,
                   "counts + spillover != stream length");
}

} // namespace core
} // namespace graphene
