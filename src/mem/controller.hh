/**
 * @file
 * A single-channel DDR4 memory controller with a pluggable Row Hammer
 * protection scheme per bank.
 *
 * The controller services requests transaction-by-transaction with
 * precise bank timing (ACT/PRE/RD/WR gated by tRC, tRCD, tRP, tRAS),
 * a shared data bus, periodic auto-refresh (REF every tREFI, tRFC
 * busy), and an open-page policy with a row-hit cap approximating the
 * paper's minimalist-open configuration. Every ACT and REF passes
 * through the channel's ProtectedRank, which applies the schemes'
 * victim refreshes with the overhead accounting of Section V-B; the
 * controller itself only decides when commands issue.
 *
 * Scheduling simplification vs. the paper's PAR-BS: requests are
 * serviced per bank in arrival order with row-hit batching. Because
 * every evaluated metric (victim-refresh count, refresh energy, bank
 * busy time) is a function of the per-bank ACT stream, reordering
 * policies shift absolute throughput but not the relative overheads
 * the paper reports; DESIGN.md discusses this substitution.
 */

#ifndef MEM_CONTROLLER_HH
#define MEM_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/protection_scheme.hh"
#include "dram/address.hh"
#include "dram/rank.hh"
#include "mem/protected_rank.hh"
#include "mem/request.hh"
#include "obs/obs.hh"
#include "schemes/factory.hh"

namespace graphene {
namespace mem {

/** Static configuration of a channel controller. */
struct ControllerConfig
{
    dram::TimingParams timing = dram::TimingParams::ddr4_2400();
    unsigned banksPerRank = 16;
    std::uint64_t rowsPerBank = 65536;
    dram::FaultConfig fault;
    schemes::SchemeSpec scheme;

    /** Consecutive row hits before the page is closed
     *  (minimalist-open style). */
    unsigned pageHitLimit = 4;

    /**
     * Victim-refresh bursts larger than this many rows are drained
     * incrementally: the bank owes the burst's busy time as "refresh
     * debt" paid down this many rows at a time before subsequent
     * demand accesses, instead of one atomic multi-microsecond
     * block. Real controllers interleave large bursts (CBT's range
     * refreshes) with demand traffic exactly this way — each victim
     * row is an internal ACT/PRE pair that demand requests can slip
     * between. One row per access keeps the effective service time
     * below the arrival spacing and avoids pathological queueing
     * that the atomic model suffers. Small bursts (NRR's 2n rows)
     * stay atomic. Zero disables chunking (fully atomic bursts).
     */
    unsigned refreshChunkRows = 1;

    /**
     * Observability sink the controller reports into (null: none).
     * Deliberately excluded from every configuration fingerprint —
     * tracing a run must not change its cache key or its results
     * (DESIGN.md §11).
     */
    obs::Sink *obs = nullptr;

    /** Flat bank id of this channel's bank 0 in the sink (channels
     *  own disjoint bank ranges of one shared sink). */
    unsigned obsBankBase = 0;
};

/** Outcome of servicing one request. */
struct ServiceResult
{
    Cycle completion{};   ///< Data available on the bus.
    bool rowHit = false;  ///< Serviced from the open row buffer.
    bool didAct = false;  ///< An ACT was required.
};

/**
 * One channel: one rank of banks, one protection scheme instance per
 * bank, one data bus.
 */
class ChannelController
{
  public:
    explicit ChannelController(const ControllerConfig &config);

    /**
     * Service one request whose decoded coordinates lie in this
     * channel. Requests must be presented in non-decreasing issue
     * order per bank.
     */
    ServiceResult access(Cycle issue, unsigned bank, Row row,
                         bool is_write);

    /** Apply all refreshes due up to @p cycle (also done lazily). */
    void catchUpRefresh(Cycle cycle) { _kernel.catchUpRefresh(cycle); }

    dram::Rank &rank() { return _kernel.rank(); }
    const dram::Rank &rank() const { return _kernel.rank(); }

    /** Protection scheme guarding @p bank (nullptr when none). */
    ProtectionScheme *scheme(unsigned bank) { return _kernel.scheme(bank); }

    /** Observability probe of @p bank (detached when unconfigured). */
    obs::Probe probe(unsigned bank) const { return _kernel.probe(bank); }

    /** Victim rows refreshed across the channel so far. */
    std::uint64_t victimRowsRefreshed() const
    {
        return rank().nrrRowCount();
    }

    /** Total ACT commands issued. */
    ActCount actCount() const { return ActCount{_kernel.acts()}; }

    /** Total requests serviced. */
    std::uint64_t requestCount() const { return _requests; }

    /** Row-buffer hit fraction so far. */
    double rowHitRate() const;

    const ControllerConfig &config() const { return _config; }

  private:
    ControllerConfig _config;
    ProtectedRank _kernel;
    std::vector<unsigned> _consecutiveHits;
    Cycle _busFreeAt{};
    std::uint64_t _requests = 0;
    std::uint64_t _rowHits = 0;
};

} // namespace mem
} // namespace graphene

#endif // MEM_CONTROLLER_HH
