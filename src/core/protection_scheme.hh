/**
 * @file
 * The common interface every Row Hammer protection scheme implements.
 *
 * A scheme instance guards a single DRAM bank. The memory controller
 * calls onActivate() for every ACT and onRefresh() for every periodic
 * REF; the scheme responds by requesting victim-row refreshes, either
 * as NRR commands on aggressor rows (expanded to +/-n victims by the
 * DRAM device) or as explicit row lists (CBT refreshes whole subtree
 * ranges).
 */

#ifndef CORE_PROTECTION_SCHEME_HH
#define CORE_PROTECTION_SCHEME_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/probe.hh"

namespace graphene {

namespace ckpt {
class Writer;
class Reader;
} // namespace ckpt

/** Refresh work requested by a scheme in response to one event. */
struct RefreshAction
{
    /** Aggressor rows for which the controller must issue NRR. */
    std::vector<Row> nrrAggressors;

    /** Explicit victim rows to refresh (row-range schemes). */
    std::vector<Row> victimRows;

    bool empty() const
    {
        return nrrAggressors.empty() && victimRows.empty();
    }

    void clear()
    {
        nrrAggressors.clear();
        victimRows.clear();
    }
};

/** Hardware cost of a scheme's per-bank tracking structures. */
struct TableCost
{
    std::uint64_t camBits = 0;  ///< Content-addressable bits per bank.
    std::uint64_t sramBits = 0; ///< Plain SRAM bits per bank.
    std::uint64_t entries = 0;  ///< Table entries per bank.

    std::uint64_t totalBits() const { return camBits + sramBits; }
};

/**
 * Bits needed to store every value in [0, @p n] — the width of n's
 * binary representation — but at least @p min_bits. TableCost fields
 * sized as registers pass min_bits = 1 (a register holding only 0
 * still takes a bit); the others let a zero range cost nothing.
 */
constexpr unsigned
bitsFor(std::uint64_t n, unsigned min_bits = 0)
{
    return std::max(static_cast<unsigned>(std::bit_width(n)), min_bits);
}

/**
 * Abstract per-bank Row Hammer protection scheme.
 */
class ProtectionScheme
{
  public:
    virtual ~ProtectionScheme() = default;

    /** Short identifier such as "Graphene" or "PARA". */
    virtual std::string name() const = 0;

    /**
     * Observe one ACT to this bank.
     *
     * @param cycle current simulation cycle.
     * @param row the activated row.
     * @param action out-parameter collecting requested refreshes.
     */
    virtual void onActivate(Cycle cycle, Row row,
                            RefreshAction &action) = 0;

    /**
     * Observe one periodic REF command (PRoHIT piggybacks its victim
     * refreshes on these). Default: no reaction.
     */
    virtual void onRefresh(Cycle cycle, RefreshAction &action);

    /** Per-bank table cost for the area comparison (Table IV). */
    virtual TableCost cost() const = 0;

    /** Victim-refresh requests issued so far (NRR count, not rows). */
    std::uint64_t victimRefreshEvents() const
    {
        return _victimRefreshEvents;
    }

    /**
     * Attach the observability probe this scheme reports through
     * (controllers attach one per bank). Detached by default; under
     * GRAPHENE_OBS_OFF the probe is empty and occupies no storage.
     */
    void attachProbe(const obs::Probe &probe) { _probe = probe; }

    /**
     * Serialize the scheme's mutable tracker state (DESIGN.md §14).
     * Overrides must start by calling the base implementation, which
     * covers the shared victim-refresh counter; probes are code-side
     * attachments and are re-attached by the owner after restore.
     */
    virtual void saveState(ckpt::Writer &w) const;

    /** Inverse of saveState() onto an identically configured scheme. */
    virtual void restoreState(ckpt::Reader &r);

  protected:
    /**
     * Record one victim-refresh decision: bumps the event counter,
     * emits a VictimRefresh trace event, and counts the named
     * metrics. @p target is the aggressor (NRR) or first victim row;
     * @p rows the explicit victim rows requested (0 for NRR, whose
     * +/-blast-radius expansion happens in the DRAM device).
     */
    void noteVictimRefresh(Cycle cycle, Row target, unsigned rows = 0)
    {
        ++_victimRefreshEvents;
        _probe.emit(cycle, obs::EventKind::VictimRefresh, target,
                    rows);
        _probe.count(cycle, "scheme.victim_refresh_events");
        if (rows)
            _probe.count(cycle, "scheme.victim_rows", rows);
    }

    std::uint64_t _victimRefreshEvents = 0;
    [[no_unique_address]] obs::Probe _probe; // analyze: ckpt-exempt(_probe) re-attached by the owner
};

} // namespace graphene

#endif // CORE_PROTECTION_SCHEME_HH
