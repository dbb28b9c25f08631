/**
 * @file
 * Captured per-bank command streams and the legal-stream guard.
 *
 * The traced runs capture what one bank saw — ACTs, periodic REFs and
 * the victim refreshes a scheme requested — and replay it into single
 * layers (FaultModel, each scheme, CounterTable). Graphene's table is
 * sized for at most W ACTs per bank per reset window (Inequality 1),
 * and its contracts panic on streams that break that bound. So every
 * stream is checked here first, and an illegal one is a typed
 * InvalidArgument error naming the bank, window, row and cycle.
 */

#ifndef PERFBENCH_STREAM_HH
#define PERFBENCH_STREAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/types.hh"
#include "dram/timing.hh"

namespace perfbench {

using graphene::Cycle;
using graphene::Row;

/** One command as the bank received it. */
struct StreamEvent
{
    enum class Kind : std::uint8_t
    {
        Act,    ///< Row activation.
        Ref,    ///< Periodic auto-refresh command.
        Nrr,    ///< Neighbour-row refresh of `row` (an aggressor).
        Victim, ///< Explicit refresh of victim `row`.
    };

    Cycle cycle{};
    Row row = Row::invalid();
    Kind kind = Kind::Act;
    std::uint8_t radius = 0; ///< Nrr blast radius.
};

/** The ordered command stream of one bank. */
struct ActStream
{
    std::string label; ///< Where it came from (cell and bank).
    unsigned bank = 0;
    std::vector<StreamEvent> events;
};

/** The bounds a legal stream obeys (derived from DRAM timing). */
struct StreamLimits
{
    Cycle rc{};                  ///< Minimum ACT-to-ACT spacing.
    Cycle rfc{};                 ///< Blackout after each REF.
    Cycle window{};              ///< Reset window, tREFW / k.
    std::uint64_t maxActs = 0;   ///< W: ACTs allowed per window.
};

/** Limits for Graphene's reset-window divisor @p k. */
StreamLimits limitsFor(const graphene::dram::TimingParams &timing,
                       unsigned k);

/**
 * Check @p stream: ACT cycles never run backwards, consecutive ACTs
 * are at least tRC apart, no ACT starts inside a REF's tRFC blackout,
 * and no reset window holds more than W ACTs.
 */
graphene::Result<void> checkLegalStream(const ActStream &stream,
                                        const StreamLimits &limits);

/**
 * The gate in front of the isolated replays. A legal stream is
 * admitted; an illegal one is kept out of every replay, counted, and
 * its typed error printed to stderr (the first few per guard). The
 * count is reported as a per-layer metric: an illegal stream is a
 * defect of the layer that produced it, which the benchmark surfaces
 * rather than replays.
 */
class StreamGuard
{
  public:
    explicit StreamGuard(const StreamLimits &limits) : _limits(limits) {}

    bool admit(const ActStream &stream);

    std::uint64_t rejected() const { return _rejected; }

  private:
    StreamLimits _limits;
    std::uint64_t _rejected = 0;
};

} // namespace perfbench

#endif // PERFBENCH_STREAM_HH
