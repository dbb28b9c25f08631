/**
 * @file
 * The stream-summary counter table at the heart of Graphene: the
 * Misra-Gries table of paper Section III-A (Figures 1-2, and the CAM
 * pseudo-code of Figure 5), and the Space-Saving variant Section VI
 * compares it with.
 *
 * The table is an associative array of (row address, estimated count)
 * entries plus a spillover count register. On every activation:
 *
 *  - address hit: the entry's estimated count increments;
 *  - address miss, some entry's count equals the spillover count:
 *    that entry's address is replaced by the incoming address and its
 *    count increments (the old count carries over);
 *  - address miss otherwise: the spillover count increments.
 *
 * Guarantees (proved in Section III-C and asserted in the test
 * suite):
 *
 *  - Lemma 1: every entry's estimated count >= the actual number of
 *    activations of the corresponding row since the last reset;
 *  - Lemma 2: the spillover count never exceeds W / (Nentry + 1)
 *    after W activations.
 *
 * Space-Saving [Metwally et al., ICDT 2005] changes only the miss
 * rule: it always replaces the lowest-numbered slot among the
 * minimum-count entries, the newcomer inherits that count plus one,
 * and nothing ever spills. Its minimum never exceeds W / Nentry.
 *
 * This model keeps full-precision logical counts; the overflow-bit
 * bit-width optimisation of Section IV-B changes only the physical
 * layout, which model::AreaModel accounts for.
 */

#ifndef CORE_COUNTER_TABLE_HH
#define CORE_COUNTER_TABLE_HH

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace graphene {

namespace ckpt {
class Writer;
class Reader;
} // namespace ckpt

namespace core {

/**
 * Fixed-capacity frequent-elements tracker over a stream of DRAM row
 * addresses: Misra-Gries (Graphene) or Space-Saving.
 */
class CounterTable
{
  public:
    /** Miss rule, fixed at construction. */
    enum class Policy
    {
        MisraGries,  ///< Replace a spillover-count entry, else spill.
        SpaceSaving, ///< Always replace the minimum-count entry.
    };

    /** One associative entry. */
    struct Entry
    {
        Row addr = Row::invalid();
        ActCount count{};
    };

    /** Sentinel slot index meaning "no table entry was touched". */
    static constexpr unsigned kNoSlot = static_cast<unsigned>(-1);

    /** Outcome of one processActivation() call. */
    struct Result
    {
        bool hit = false;      ///< Address was already present.
        bool inserted = false; ///< Address replaced an entry.
        bool spilled = false;  ///< Spillover count incremented.
        /** Estimated count after the update (0 when spilled). */
        ActCount estimatedCount{};
        /** Slot updated by a hit or insert; kNoSlot when spilled. */
        unsigned slot = kNoSlot;
    };

    /** @param num_entries table capacity Nentry (must be > 0). */
    explicit CounterTable(unsigned num_entries,
                          Policy policy = Policy::MisraGries);

    /** Process one activated row address (Figure 1 flow). */
    Result processActivation(Row addr);

    /** Clear the table and the spillover register (window reset). */
    void reset();

    ActCount spilloverCount() const { return _spillover; }

    /** @return true if @p addr currently occupies an entry. */
    bool contains(Row addr) const;

    /** Estimated count of @p addr, or 0 when absent. */
    ActCount estimatedCount(Row addr) const;

    unsigned numEntries() const
    {
        return static_cast<unsigned>(_entries.size());
    }

    Policy policy() const { return _policy; }

    /** Entries currently holding a valid address. */
    unsigned occupied() const { return _occupied; }

    /** Total activations processed since the last reset. */
    ActCount streamLength() const { return _streamLength; }

    /** Smallest estimated count over all entries (for invariants). */
    ActCount minEstimatedCount() const;

    const std::vector<Entry> &entries() const { return _entries; }

    /**
     * Panic unless the internal invariants hold: every count >= the
     * spillover count, spillover + sum(counts) == streamLength, and
     * the policy's bound — spillover <= streamLength / (Nentry + 1)
     * for Misra-Gries, min count <= streamLength / Nentry for
     * Space-Saving. Used by the property tests after every step. Must
     * not be called on a table that has had faults injected and not
     * yet been scrubbed/reset: the conservation check is a hard panic,
     * and a flipped bit legitimately breaks it.
     */
    void checkInvariants() const;

    /**
     * @name Fault-injection and scrub hooks
     *
     * The corrupt*() methods model single-event upsets in the SRAM/CAM
     * arrays for the inject:: fault-injection harness. They flip one
     * stored bit while keeping the *bookkeeping* (_index, _buckets)
     * structurally consistent — like real hardware, where a flipped
     * cell changes what the CAM matches but never produces an
     * impossible circuit state — so only the semantic guarantees
     * (Lemmas 1-2, conservation) break, never the hard-panicking
     * internal consistency checks.
     *
     * The scrub*() methods are the repair actions a parity-protected
     * table (HardenedCounterTable) takes when a check fails: they
     * restore the invariants conservatively (over-estimating, never
     * under-estimating, so Lemma 1 safety is regained going forward).
     */
    ///@{

    /**
     * Flip bit @p bit of the address stored in @p slot. The old
     * index mapping is dropped and the new address is indexed unless
     * another slot already owns it (the aliased slot then shadows
     * this one, as in a CAM with two matching lines).
     *
     * @return false (no flip) when the slot holds no valid address.
     */
    bool corruptEntryAddress(unsigned slot, unsigned bit);

    /** Flip bit @p bit of the estimated count stored in @p slot. */
    void corruptEntryCount(unsigned slot, unsigned bit);

    /** Flip bit @p bit of the spillover count register. */
    void corruptSpillover(unsigned bit);

    /**
     * Scrub repair: invalidate @p slot and reset its count to the
     * current spillover count (making it an immediate replacement
     * candidate, exactly like a fresh table slot).
     *
     * @return the address the slot held (possibly corrupted), so the
     *         caller can issue a conservative victim refresh for it;
     *         Row::invalid() when the slot was empty.
     */
    Row scrubResetEntry(unsigned slot);

    /**
     * Scrub repair: overwrite the spillover register. Callers pass a
     * conservative (high) estimate — typically the minimum estimated
     * count over the trusted entries — since over-estimating the
     * untracked rows' counts is the protection-safe direction.
     */
    void scrubSetSpillover(ActCount value);

    ///@}

    /**
     * Serialize entries (slot order), the address index (sorted by
     * row — under injected faults two slots can alias one address,
     * so the index is state, not a derivation), spillover, stream
     * length and occupancy. Buckets are rebuilt (DESIGN.md §14).
     */
    void saveState(ckpt::Writer &w) const;

    /** Inverse of saveState() onto a same-capacity table. */
    void restoreState(ckpt::Reader &r);

  private:
    void moveBucket(unsigned slot, ActCount from, ActCount to);

    Policy _policy; // analyze: ckpt-exempt(_policy) config, fixed at construction
    std::vector<Entry> _entries;
    /// Map from row address to slot index.
    std::unordered_map<Row, unsigned> _index;
    /// Map from count value to the set of slots holding that count:
    /// every slot sits in exactly the bucket of its current count, so
    /// restoreState() rebuilds the map from the entries. The map is
    /// ordered so Space-Saving finds the minimum at begin(); the
    /// inner set is *ordered* by slot index on purpose: replacement
    /// takes the bucket's begin(), and with an unordered set that
    /// choice would depend on insertion history — state a checkpoint
    /// cannot capture — so a resumed run could evict a different
    /// (equally valid) slot and silently diverge from the
    /// uninterrupted one.
    std::map<ActCount, std::set<unsigned>>
        _buckets; // analyze: ckpt-exempt(_buckets) rebuilt from entries on restore
    ActCount _spillover{};
    ActCount _streamLength{};
    unsigned _occupied = 0;
};

} // namespace core
} // namespace graphene

#endif // CORE_COUNTER_TABLE_HH
