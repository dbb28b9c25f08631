#include "core/tracker_scheme.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/tracker_count_min.hh"
#include "core/tracker_counter_table.hh"
#include "core/tracker_lossy_counting.hh"

namespace graphene {
namespace core {

std::string
trackerKindName(TrackerKind kind)
{
    switch (kind) {
      case TrackerKind::MisraGries:    return "misra-gries";
      case TrackerKind::SpaceSaving:   return "space-saving";
      case TrackerKind::LossyCounting: return "lossy-counting";
      case TrackerKind::CountMin:      return "count-min";
      case TrackerKind::CountMinConservative: return "count-min-cu";
    }
    return "?";
}

std::vector<TrackerKind>
allTrackerKinds()
{
    return {TrackerKind::MisraGries, TrackerKind::SpaceSaving,
            TrackerKind::LossyCounting, TrackerKind::CountMin,
            TrackerKind::CountMinConservative};
}

std::unique_ptr<AggressorTracker>
makeTracker(TrackerKind kind, const GrapheneConfig &config)
{
    const std::uint64_t w = config.maxActsPerWindow().value();
    const std::uint64_t t = config.trackingThreshold().value();

    switch (kind) {
      case TrackerKind::MisraGries:
      case TrackerKind::SpaceSaving:
        // Space Saving takes Misra-Gries's capacity criterion: with
        // N > W/T - 1 entries the summary minimum stays below T, so
        // no row can reach T while untracked.
        return std::make_unique<CounterTableTracker>(
            config.numEntries(),
            kind == TrackerKind::SpaceSaving
                ? CounterTable::Policy::SpaceSaving
                : CounterTable::Policy::MisraGries);

      case TrackerKind::LossyCounting: {
        // Bucket width w = W/T keeps the insertion delta strictly
        // below T: a row cannot reach T actual activations without
        // its estimate (an upper bound) having crossed T first, and
        // it is never pruned while hot.
        const std::uint64_t width = std::max<std::uint64_t>(
            1, w / std::max<std::uint64_t>(1, t));
        return std::make_unique<LossyCountingTracker>(width);
      }

      case TrackerKind::CountMin:
      case TrackerKind::CountMinConservative: {
        // Width sized so expected collision inflation stays around
        // T/4 per window: 4W/T counters per sketch row.
        CountMinConfig cm;
        cm.depth = 4;
        cm.width = static_cast<unsigned>(std::max<std::uint64_t>(
            16, 4 * w / std::max<std::uint64_t>(1, t)));
        cm.conservativeUpdate =
            kind == TrackerKind::CountMinConservative;
        return std::make_unique<CountMinTracker>(cm);
      }
    }
    GRAPHENE_UNREACHABLE("unknown tracker kind");
}

TrackerScheme::TrackerScheme(
    std::unique_ptr<AggressorTracker> tracker,
    const GrapheneConfig &config)
    : _tracker(std::move(tracker)), _config(config),
      _threshold(config.trackingThreshold()),
      _windowCycles(config.resetWindowCycles())
{
    GRAPHENE_CHECK(_tracker != nullptr, "tracker scheme: null tracker");
    const Result<void> valid = _config.validate();
    GRAPHENE_CHECK(valid.ok(), "tracker scheme: invalid config: %s",
                   valid.error().describe().c_str());
}

std::string
TrackerScheme::name() const
{
    return "Graphene[" + _tracker->name() + "]";
}

void
TrackerScheme::maybeReset(Cycle cycle)
{
    const RefWindow idx{cycle / _windowCycles};
    if (idx != _windowIdx) {
        _tracker->reset();
        _levels.clear();
        _windowIdx = idx;
        _probe.emit(cycle, obs::EventKind::TrackerReset,
                    Row::invalid(),
                    static_cast<std::uint32_t>(idx.value()));
        _probe.count(cycle, "tracker.resets");
    }
}

void
TrackerScheme::onActivate(Cycle cycle, Row row, RefreshAction &action)
{
    maybeReset(cycle);

    const ActCount after = _tracker->processActivation(row);
    if (after == ActCount{})
        return; // absorbed by shared state (spillover)

    // Catch-up crossing rule (see the file comment): refresh when the
    // estimate's T-level exceeds the level at this row's last
    // refresh, so a crossing caused by a colliding row's update is
    // caught at the victim's next own activation.
    const std::uint64_t level_after = after / _threshold;
    const auto it = _levels.find(row);
    const std::uint64_t level_last =
        it == _levels.end() ? 0 : it->second;
    if (level_after > level_last) {
        _levels[row] = level_after;
        action.nrrAggressors.push_back(row);
        _probe.emit(cycle, obs::EventKind::ThresholdCross, row,
                    static_cast<std::uint32_t>(after.value()));
        noteVictimRefresh(cycle, row);
    }
}

TableCost
TrackerScheme::cost() const
{
    return _tracker->cost(65536);
}

} // namespace core
} // namespace graphene
