/**
 * @file
 * The entry-based trackers of the Section VI design-space study —
 * Misra-Gries (Graphene's choice) and Space Saving [Metwally et al.,
 * ICDT 2005] — behind the generic AggressorTracker interface: one
 * adapter over CounterTable, whose policy picks the miss rule.
 *
 * Soundness for Row Hammer: every entry's count upper-bounds the
 * actual activations of its row (the carried-over spillover or
 * inherited minimum upper-bounds whatever the row accumulated while
 * untracked), and an untracked row's actual count is at most the
 * spillover count (Misra-Gries, <= W / (Nentry + 1)) or the current
 * minimum (Space Saving, <= W / Nentry). With Graphene's capacity both
 * stay below T + slack, so the multiple-of-T trigger policy carries
 * over (TrackerScheme handles Space Saving's insertion jump crossing
 * several thresholds at once).
 */

#ifndef CORE_TRACKER_COUNTER_TABLE_HH
#define CORE_TRACKER_COUNTER_TABLE_HH

#include "core/counter_table.hh"
#include "core/tracker.hh"

namespace graphene {
namespace core {

/** A CounterTable as an AggressorTracker. */
class CounterTableTracker : public AggressorTracker
{
  public:
    /** @param entries table capacity (Nentry). */
    CounterTableTracker(unsigned entries, CounterTable::Policy policy);

    std::string name() const override;
    ActCount processActivation(Row row) override;
    ActCount estimatedCount(Row row) const override;
    void reset() override;
    TableCost cost(std::uint64_t rows_per_bank) const override;
    double
    overestimateBound(ActCount stream_length) const override;

    const CounterTable &table() const { return _table; }

  private:
    CounterTable _table;
};

} // namespace core
} // namespace graphene

#endif // CORE_TRACKER_COUNTER_TABLE_HH
