#include "replay.hh"

#include "core/counter_table.hh"
#include "core/protection_scheme.hh"

namespace perfbench {

using graphene::ActCount;
using graphene::RefreshAction;
using graphene::Result;
using Kind = StreamEvent::Kind;

namespace {

/** End of the run of ACT events starting at @p i. */
std::size_t
actRunEnd(const ActStream &stream, std::size_t i)
{
    while (i < stream.events.size() &&
           stream.events[i].kind == Kind::Act)
        ++i;
    return i;
}

} // namespace

FaultReplay
replayFault(const ActStream &stream,
            const graphene::dram::FaultConfig &config, std::uint64_t rows,
            std::uint64_t rows_per_refresh, SpanTrace &trace)
{
    const unsigned act_id = trace.id("dram.fault_act");
    const unsigned ref_id = trace.id("dram.fault_refresh");
    graphene::dram::FaultModel fault(config, rows);
    std::uint64_t pointer = 0;
    FaultReplay out;

    const auto &ev = stream.events;
    for (std::size_t i = 0; i < ev.size();) {
        if (ev[i].kind == Kind::Act) {
            const std::size_t end = actRunEnd(stream, i);
            trace.open(act_id);
            for (std::size_t k = i; k < end; ++k)
                fault.onActivate(ev[k].cycle, ev[k].row);
            trace.close(end - i);
            i = end;
            continue;
        }
        const StreamEvent &e = ev[i++];
        trace.open(ref_id);
        std::uint64_t refreshed = 0;
        if (e.kind == Kind::Ref) {
            for (std::uint64_t r = 0; r < rows_per_refresh; ++r)
                fault.onRowRefresh(Row{static_cast<Row::rep>(
                    (pointer + r) % rows)});
            pointer = (pointer + rows_per_refresh) % rows;
            refreshed = rows_per_refresh;
        } else if (e.kind == Kind::Nrr) {
            for (Row v : fault.physicalNeighbors(e.row, e.radius)) {
                fault.onRowRefresh(v);
                ++refreshed;
            }
        } else {
            fault.onRowRefresh(e.row);
            refreshed = 1;
        }
        trace.close(refreshed);
    }
    out.peakDisturbance = fault.peakDisturbance();
    out.flips = fault.flips().size();
    return out;
}

Result<SchemeReplay>
replayScheme(const ActStream &stream,
             const graphene::schemes::SchemeSpec &spec,
             const std::string &suffix, SpanTrace &trace)
{
    auto built = graphene::schemes::makeScheme(spec);
    if (!built.ok())
        return built.error();
    std::unique_ptr<graphene::ProtectionScheme> scheme =
        std::move(built).value();
    SchemeReplay out;
    if (!scheme)
        return out;

    const std::string name = graphene::schemes::schemeKindName(spec.kind);
    const unsigned act_id =
        trace.id("schemes." + name + ".act." + suffix);
    const unsigned ref_id = trace.id("schemes." + name + ".ref");
    RefreshAction action;

    const auto &ev = stream.events;
    for (std::size_t i = 0; i < ev.size();) {
        if (ev[i].kind == Kind::Act) {
            const std::size_t end = actRunEnd(stream, i);
            trace.open(act_id);
            for (std::size_t k = i; k < end; ++k) {
                action.clear();
                scheme->onActivate(ev[k].cycle, ev[k].row, action);
            }
            trace.close(end - i);
            out.acts += end - i;
            i = end;
            continue;
        }
        const StreamEvent &e = ev[i++];
        if (e.kind != Kind::Ref)
            continue;
        action.clear();
        trace.span(ref_id, [&] { scheme->onRefresh(e.cycle, action); });
    }
    out.victimEvents = scheme->victimRefreshEvents();
    return out;
}

TableReplay
replayTable(const ActStream &stream,
            const graphene::core::GrapheneConfig &config,
            SpanTrace &trace)
{
    const unsigned id = trace.id("core.table_update");
    graphene::core::CounterTable table(config.numEntries());
    const ActCount threshold = config.trackingThreshold();
    const Cycle window = config.resetWindowCycles();
    std::uint64_t window_idx = 0;
    TableReplay out;

    const auto &ev = stream.events;
    for (std::size_t i = 0; i < ev.size();) {
        if (ev[i].kind != Kind::Act) {
            ++i;
            continue;
        }
        const std::size_t end = actRunEnd(stream, i);
        trace.open(id);
        for (std::size_t k = i; k < end; ++k) {
            const std::uint64_t w = ev[k].cycle / window;
            if (w != window_idx) {
                table.reset();
                window_idx = w;
            }
            const graphene::core::CounterTable::Result r =
                table.processActivation(ev[k].row);
            out.hits += r.hit;
            out.inserts += r.inserted;
            out.spills += r.spilled;
            out.crossings +=
                !r.spilled && r.estimatedCount % threshold == ActCount{};
        }
        trace.close(end - i);
        out.updates += end - i;
        i = end;
    }
    return out;
}

graphene::core::GrapheneConfig
grapheneConfigFor(const graphene::schemes::SchemeSpec &spec)
{
    graphene::core::GrapheneConfig config;
    config.rowHammerThreshold = spec.rowHammerThreshold;
    config.resetWindowDivisor = spec.grapheneK;
    config.blastRadius = spec.blastRadius;
    config.mu =
        graphene::core::GrapheneConfig::inverseSquareMu(spec.blastRadius);
    config.timing = spec.timing;
    return config;
}

} // namespace perfbench
