/**
 * @file
 * Isolated layer replays: one captured bank stream driven into a
 * single layer with nothing else around it. Consecutive calls of one
 * kind form one span (its call count is the batch size), so the timer
 * cost is spread over the batch rather than added to every call.
 *
 * Every replay needs a stream that already passed checkLegalStream();
 * callers guard first.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <string>

#include "core/config.hh"
#include "dram/fault_model.hh"
#include "schemes/factory.hh"
#include "spans.hh"
#include "stream.hh"

namespace perfbench {

struct FaultReplay
{
    double peakDisturbance = 0.0;
    std::size_t flips = 0;
};

/**
 * Drive @p stream into a fresh FaultModel: ACTs deposit charge; each
 * REF refreshes the next @p rows_per_refresh rows of the rotation (as
 * dram::Rank does); NRR and victim events refresh the rows the device
 * would. Spans: `dram.fault_act`, `dram.fault_refresh` (per row).
 */
FaultReplay replayFault(const ActStream &stream,
                        const graphene::dram::FaultConfig &config,
                        std::uint64_t rows,
                        std::uint64_t rows_per_refresh,
                        SpanTrace &trace);

struct SchemeReplay
{
    std::uint64_t acts = 0;
    std::uint64_t victimEvents = 0;
};

/**
 * Drive the ACTs and REFs of @p stream into a fresh scheme built from
 * @p spec (the per-bank spec, seed included). Spans:
 * `schemes.<S>.act.<suffix>` and `schemes.<S>.ref`.
 */
graphene::Result<SchemeReplay>
replayScheme(const ActStream &stream,
             const graphene::schemes::SchemeSpec &spec,
             const std::string &suffix, SpanTrace &trace);

struct TableReplay
{
    std::uint64_t updates = 0;
    std::uint64_t hits = 0;
    std::uint64_t inserts = 0;
    std::uint64_t spills = 0;
    /** Estimated counts landing on a multiple of T: the NRRs Graphene
     *  would issue on this stream. */
    std::uint64_t crossings = 0;

    TableReplay &operator+=(const TableReplay &o)
    {
        updates += o.updates;
        hits += o.hits;
        inserts += o.inserts;
        spills += o.spills;
        crossings += o.crossings;
        return *this;
    }
};

/**
 * Drive the ACTs of @p stream through a bare CounterTable sized and
 * reset like Graphene's under @p config. Span: `core.table_update`.
 */
TableReplay replayTable(const ActStream &stream,
                        const graphene::core::GrapheneConfig &config,
                        SpanTrace &trace);

/** The GrapheneConfig schemes::makeScheme derives from @p spec. */
graphene::core::GrapheneConfig
grapheneConfigFor(const graphene::schemes::SchemeSpec &spec);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
