#include "core/tracker_lossy_counting.hh"

#include <cmath>
#include <vector>

#include "check/contracts.hh"
#include "common/logging.hh"

namespace graphene {
namespace core {

LossyCountingTracker::LossyCountingTracker(std::uint64_t bucket_width)
    : _bucketWidth(bucket_width)
{
    GRAPHENE_CHECK(bucket_width > 0,
                   "lossy counting: zero bucket width");
}

std::string
LossyCountingTracker::name() const
{
    return "lossy-counting";
}

void
LossyCountingTracker::pruneAtBoundary()
{
    std::vector<Row> dead;
    // lint: order-independent (collect-then-erase, per-entry test)
    for (const auto &kv : _table)
        if (kv.second.frequency + kv.second.delta <= _bucket)
            dead.push_back(kv.first);
    for (Row r : dead)
        _table.erase(r);
    ++_bucket;
}

ActCount
LossyCountingTracker::processActivation(Row row)
{
    auto it = _table.find(row);
    if (it == _table.end()) {
        it = _table.emplace(row, Entry{1, _bucket - 1}).first;
        _peak = std::max(_peak, _table.size());
    } else {
        ++it->second.frequency;
    }
    const std::uint64_t estimate =
        it->second.frequency + it->second.delta;
    // The insertion delta is the completed-bucket count, so the
    // estimate can exceed the actual count by at most bucket - 1:
    // the deterministic bound protection parity relies on.
    GRAPHENE_INVARIANT(it->second.delta < _bucket,
                       "lossy counting delta outran the bucket index");
    GRAPHENE_ENSURES(estimate >= it->second.frequency,
                     "estimate must dominate the observed frequency");

    if (++_itemsInBucket >= _bucketWidth) {
        _itemsInBucket = 0;
        pruneAtBoundary();
    }
    return ActCount{estimate};
}

ActCount
LossyCountingTracker::estimatedCount(Row row) const
{
    auto it = _table.find(row);
    return it == _table.end()
               ? ActCount{}
               : ActCount{it->second.frequency + it->second.delta};
}

void
LossyCountingTracker::reset()
{
    _table.clear();
    _bucket = 1;
    _itemsInBucket = 0;
}

TableCost
LossyCountingTracker::cost(std::uint64_t rows_per_bank) const
{
    // Worst-case occupancy (1/e) log(eN) with e = 1/w, i.e.
    // w log(N/w), evaluated for the paper's per-window stream length.
    // With w sized so that every row hotter than T survives
    // (w = W/T ~ 82), this is an order of magnitude more entries
    // than Misra-Gries needs — the Section VI trade-off.
    const double w = static_cast<double>(_bucketWidth);
    const double stream = 1360000.0;
    const double entries =
        std::ceil(w * std::log(std::max(2.0, stream / w)));

    const unsigned addr_bits = bitsFor(rows_per_bank - 1);

    TableCost cost;
    cost.entries = static_cast<std::uint64_t>(entries);
    // Address lookup is associative; frequency and delta live in
    // SRAM (each up to 21 bits for the paper's W).
    cost.camBits = cost.entries * addr_bits;
    cost.sramBits = cost.entries * (21ULL + 21ULL);
    return cost;
}

double
LossyCountingTracker::overestimateBound(ActCount stream_length) const
{
    // delta <= number of completed buckets.
    return static_cast<double>(stream_length.value()) /
           static_cast<double>(_bucketWidth);
}

} // namespace core
} // namespace graphene
