#include "core/tracker_counter_table.hh"

#include "check/contracts.hh"

namespace graphene {
namespace core {

CounterTableTracker::CounterTableTracker(unsigned entries,
                                         CounterTable::Policy policy)
    : _table(entries, policy)
{
}

std::string
CounterTableTracker::name() const
{
    return _table.policy() == CounterTable::Policy::MisraGries
               ? "misra-gries"
               : "space-saving";
}

ActCount
CounterTableTracker::processActivation(Row row)
{
    const CounterTable::Result r = _table.processActivation(row);
    // A spilled activation is the only way to come back untracked;
    // any tracked outcome must report a count above the spillover
    // floor (Lemma 1 needs the carried-over base plus this ACT).
    GRAPHENE_ENSURES(r.spilled ||
                         r.estimatedCount > _table.spilloverCount(),
                     "tracked row fell to the spillover floor");
    return r.estimatedCount;
}

ActCount
CounterTableTracker::estimatedCount(Row row) const
{
    return _table.estimatedCount(row);
}

void
CounterTableTracker::reset()
{
    _table.reset();
}

TableCost
CounterTableTracker::cost(std::uint64_t rows_per_bank) const
{
    // Address CAM + count CAM, full-width counts (the overflow-bit
    // layout optimisation applies equally to every entry-based
    // tracker, so the comparison uses raw widths throughout). Space
    // Saving's min-search takes the place of the spillover match.
    TableCost cost;
    cost.entries = _table.numEntries();
    const unsigned addr_bits = bitsFor(rows_per_bank - 1, 1);
    cost.camBits = cost.entries * (addr_bits + 21ULL);
    return cost;
}

double
CounterTableTracker::overestimateBound(ActCount stream_length) const
{
    // A tracked row's estimate exceeds its actual count by at most
    // the count it carried over at its last insertion: the spillover
    // bound W / (Nentry + 1), or Space Saving's minimum, <= W / N.
    const double n = _table.numEntries();
    return static_cast<double>(stream_length.value()) /
           (_table.policy() == CounterTable::Policy::MisraGries ? n + 1.0
                                                                 : n);
}

} // namespace core
} // namespace graphene
