/**
 * @file
 * The per-ACT protection kernel. Graphene's guarantee assumes every
 * ACT reaches the bank's tracker and every NRR it requests is applied
 * (Section IV-A), at tRC of bank-busy time per refreshed victim row
 * (Section V-B). Both happen here, for every driver: the channel
 * controller (runSystem, replayTrace) and the ACT-stream engine
 * (runActStream, the adversarial grids, serve). Drivers own timing:
 * they issue each ACT on the bank, then report it through activate().
 */

#ifndef MEM_PROTECTED_RANK_HH
#define MEM_PROTECTED_RANK_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "core/protection_scheme.hh"
#include "dram/rank.hh"
#include "obs/obs.hh"
#include "schemes/factory.hh"

namespace graphene {
namespace mem {

/** A DRAM rank whose every ACT and REF passes its banks' schemes. */
class ProtectedRank
{
  public:
    /** One scheme per bank; null leaves that bank unprotected. */
    using Schemes = std::vector<std::unique_ptr<ProtectionScheme>>;

    /**
     * @p schemes holds one entry per bank of @p rank. Explicit victim
     * bursts of more than @p chunk_rows rows are refreshed at once but
     * their bank-busy time becomes debt() for the driver to pay down;
     * 0 keeps every burst atomic. Bank b traces into @p obs as flat
     * bank @p obs_bank_base + b.
     */
    ProtectedRank(dram::Rank rank, Schemes schemes,
                  unsigned blast_radius, unsigned chunk_rows,
                  obs::Sink *obs = nullptr, unsigned obs_bank_base = 0);

    /** Issue every REF due up to @p cycle and apply what each bank's
     *  scheme requests in response (PRoHIT, TWiCe pruning). */
    void catchUpRefresh(Cycle cycle);

    /**
     * Account one ACT the driver issued: trace it, deposit it in the
     * fault model, and apply the NRRs and victim refreshes the bank's
     * scheme requests. Victim rows outside the bank are dropped.
     */
    void activate(Cycle cycle, unsigned bank, Row row);

    /** Bank-busy cycles @p bank still owes for deferred bursts. */
    Cycle debt(unsigned bank) const { return _debt[bank]; }
    void payDebt(unsigned bank, Cycle paid) { _debt[bank] -= paid; }

    dram::Rank &rank() { return _rank; }
    const dram::Rank &rank() const { return _rank; }
    ProtectionScheme *scheme(unsigned bank) const;
    obs::Probe probe(unsigned bank) const { return _probes[bank]; }
    std::uint64_t acts() const { return _acts; }
    /** NRR commands issued so far (aggressors, not rows). */
    std::uint64_t nrrEvents() const { return _nrrEvents; }

    /** Serialize counters, rank and schemes (DESIGN.md §14); a rank
     *  that owes refresh debt cannot be saved. */
    void saveState(ckpt::Writer &w) const;
    /** Inverse of saveState(); re-attaches the schemes' probes. */
    void restoreState(ckpt::Reader &r);

  private:
    void applyRefreshAction(Cycle cycle, unsigned bank);

    dram::Rank _rank;
    Schemes _schemes;
    std::vector<obs::Probe> _probes; // analyze: ckpt-exempt(_probes) re-attached by the owner
    unsigned _blastRadius;           // analyze: ckpt-exempt(_blastRadius) config, fixed at construction
    unsigned _chunkRows;             // analyze: ckpt-exempt(_chunkRows) config, fixed at construction
    std::vector<Cycle> _debt;        // analyze: ckpt-exempt(_debt) saveState requires it to be zero
    RefreshAction _action;           // analyze: ckpt-exempt(_action) transient scratch, empty between calls
    std::uint64_t _acts = 0;
    std::uint64_t _nrrEvents = 0;
};

/** One scheme per bank from @p spec, bank b seeded with seed_of(b);
 *  aborts on an invalid spec (callers validate at their boundary). */
ProtectedRank::Schemes
buildBankSchemes(const schemes::SchemeSpec &spec, unsigned banks,
                 const std::function<std::uint64_t(unsigned)> &seed_of);

} // namespace mem
} // namespace graphene

#endif // MEM_PROTECTED_RANK_HH
