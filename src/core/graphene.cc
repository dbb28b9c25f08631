#include "core/graphene.hh"

#include <cmath>

#include "check/contracts.hh"
#include "ckpt/io.hh"
#include "common/logging.hh"

namespace graphene {
namespace core {

Graphene::Graphene(const GrapheneConfig &config,
                   std::uint64_t rows_per_bank)
    : _config(config), _rowsPerBank(rows_per_bank),
      _threshold(config.trackingThreshold()),
      _windowCycles(config.resetWindowCycles()),
      _table(config.numEntries())
{
    const Result<void> valid = _config.validate();
    GRAPHENE_CHECK(valid.ok(),
                   "graphene: constructed from an invalid config "
                   "(validate() before constructing): %s",
                   valid.error().describe().c_str());
}

std::string
Graphene::name() const
{
    return "Graphene";
}

void
Graphene::maybeReset(Cycle cycle)
{
    const RefWindow idx{cycle / _windowCycles};
    GRAPHENE_EXPECTS(idx >= _windowIdx,
                     "activation cycle ran backwards across a reset "
                     "window boundary");
    if (idx != _windowIdx) {
        _table.reset();
        _windowIdx = idx;
        ++_resetCount;
        _probe.emit(cycle, obs::EventKind::TrackerReset, Row::invalid(),
                    static_cast<std::uint32_t>(idx.value()));
        _probe.count(cycle, "graphene.tracker_resets");
    }
}

void
Graphene::onActivate(Cycle cycle, Row row, RefreshAction &action)
{
    maybeReset(cycle);

    const CounterTable::Result r = _table.processActivation(row);
    if (r.spilled) {
        _probe.emit(cycle, obs::EventKind::TrackerSpill, row);
        _probe.count(cycle, "graphene.spills");
        return;
    }
    if (r.inserted) {
        _probe.emit(cycle, obs::EventKind::TrackerInsert, row, r.slot);
        _probe.count(cycle, "graphene.inserts");
    } else {
        _probe.count(cycle, "graphene.hits");
    }

    // The multiple-of-T trigger is only exact if an insert lands
    // below T: guaranteed by the table sizing (Nentry > W/T - 1
    // keeps spillover < T, Inequality 1).
    GRAPHENE_INVARIANT(!r.inserted || r.estimatedCount <= _threshold,
                       "insert landed past the tracking threshold — "
                       "table undersized for W/T");

    // Estimated counts advance strictly by one (hits) or from a value
    // below T (inserts, since spillover < T by Lemma 2 and the table
    // sizing), so every multiple of T is observed exactly when it is
    // reached.
    if (r.estimatedCount % _threshold == ActCount{}) {
        action.nrrAggressors.push_back(row);
        _probe.emit(cycle, obs::EventKind::ThresholdCross, row,
                    static_cast<std::uint32_t>(
                        r.estimatedCount.value()));
        _probe.count(cycle, "graphene.threshold_crossings");
        noteVictimRefresh(cycle, row);
        GRAPHENE_ENSURES(action.nrrAggressors.back() == row,
                         "NRR must target the crossing aggressor");
    }
}

TableCost
Graphene::cost() const
{
    return costFor(_config, _rowsPerBank, true);
}

void
Graphene::saveState(ckpt::Writer &w) const
{
    ProtectionScheme::saveState(w);
    w.u64(_windowIdx.value());
    w.u64(_resetCount);
    _table.saveState(w);
}

void
Graphene::restoreState(ckpt::Reader &r)
{
    ProtectionScheme::restoreState(r);
    _windowIdx = RefWindow(r.u64());
    _resetCount = r.u64();
    _table.restoreState(r);
}

TableCost
Graphene::costFor(const GrapheneConfig &config,
                  std::uint64_t rows_per_bank, bool optimized)
{
    const ActCount t = config.trackingThreshold();
    const ActCount w = config.maxActsPerWindow();
    const unsigned entries = config.numEntries();

    const unsigned addr_bits = bitsFor(rows_per_bank - 1, 1);
    // Raw counts must reach W; the overflow-bit optimisation caps the
    // counter at T and adds one sticky overflow bit (Section IV-B).
    const unsigned count_bits = optimized ? bitsFor(t.value() - 1, 1) + 1
                                          : bitsFor(w.value(), 1);

    TableCost cost;
    cost.entries = entries;
    // Both the address array and the count array are CAMs (the count
    // CAM is searched for the spillover value, Figure 4).
    cost.camBits =
        static_cast<std::uint64_t>(entries) * (addr_bits + count_bits);
    cost.sramBits = 0;
    return cost;
}

} // namespace core
} // namespace graphene
