/**
 * @file
 * Physical Row Hammer fault model.
 *
 * The paper's evaluation asserts protection guarantees analytically;
 * this reproduction additionally *measures* them: every ACT deposits
 * charge disturbance into nearby rows (weighted by distance
 * coefficients mu_i, Section III-D), any refresh of a row restores its
 * charge, and a row whose accumulated disturbance reaches the Row
 * Hammer threshold suffers a recorded bit flip. A protection scheme is
 * sound iff no flips are recorded under any access pattern.
 */

#ifndef DRAM_FAULT_MODEL_HH
#define DRAM_FAULT_MODEL_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace graphene {

namespace ckpt {
class Writer;
class Reader;
} // namespace ckpt

namespace dram {

/** One observed Row Hammer bit flip. */
struct BitFlip
{
    Row victimRow;
    Cycle cycle;
    double disturbance;
};

/** Configuration of the disturbance physics. */
struct FaultConfig
{
    /**
     * Row Hammer threshold: the number of adjacent-row ACTs (without
     * an intervening refresh) that flips a bit. Default 50K per
     * TRRespass on DDR4.
     */
    double rowHammerThreshold = 50000.0;

    /**
     * Distance coefficients; mu[0] is the weight at distance 1
     * (always 1.0 in the paper's normalisation), mu[1] at distance 2,
     * and so on. The vector length is the blast radius n.
     */
    std::vector<double> mu = {1.0};

    /**
     * Internal row remapping (paper Section II-C): when true, the
     * device scrambles logical row addresses, so physically adjacent
     * rows are NOT logically adjacent. Schemes that refresh logical
     * neighbourhoods themselves (CBT's contiguous ranges) silently
     * miss the real victims; the in-DRAM NRR command is unaffected
     * because the device knows its own map.
     */
    bool remap = false;

    /** Seed of the remap permutation. */
    std::uint64_t remapSeed = 0xdecafbadULL;
};

/**
 * Tracks charge disturbance per row for one bank.
 */
class FaultModel
{
  public:
    FaultModel(const FaultConfig &config, std::uint64_t num_rows);

    /** Deposit disturbance into the neighbours of @p aggressor. */
    void onActivate(Cycle cycle, Row aggressor);

    /** A refresh (normal, REF stripe, or NRR victim) restores @p row. */
    void onRowRefresh(Row row);

    /**
     * The logical rows that are physically within @p distance of
     * @p aggressor — what the device's internal NRR must refresh.
     * Identity +/-d without remapping.
     */
    std::vector<Row> physicalNeighbors(Row aggressor,
                                       unsigned distance) const;

    /** True when the remap permutation is active. */
    bool remapped() const { return _config.remap; }

    /** Accumulated disturbance of @p row since its last refresh. */
    double disturbance(Row row) const;

    /** All flips observed so far (one per victim row per excursion). */
    const std::vector<BitFlip> &flips() const { return _flips; }

    /**
     * The highest disturbance any row ever accumulated between two of
     * its refreshes — the empirical counterpart of the Section III-C
     * bound 2(k+1)(T-1).
     */
    double peakDisturbance() const { return _peak; }

    std::uint64_t numRows() const { return _numRows; }
    unsigned blastRadius() const
    {
        return static_cast<unsigned>(_config.mu.size());
    }

    /**
     * Serialize the charge state sparsely: only rows with non-default
     * cells (disturbed or flipped), in row order, plus the flip log
     * and the peak (DESIGN.md §14). Costs O(rows touched since their
     * last refresh), not O(rows): it walks the touched-row bitmap.
     */
    void saveState(ckpt::Writer &w) const;

    /** Inverse of saveState() onto an identically configured model. */
    void restoreState(ckpt::Reader &r);

  private:
    struct CellState
    {
        double disturbance = 0.0;
        bool flipped = false;
    };

    void deposit(Cycle cycle, Row victim, double amount);

    /** Call @p f with every row whose touched bit is set, in order. */
    template <typename F>
    void forEachTouched(F &&f) const;

    FaultConfig _config;    // analyze: ckpt-exempt(_config) config, rebuilt by the constructor
    std::uint64_t _numRows; // analyze: ckpt-exempt(_numRows) config, rebuilt by the constructor
    /// Dense per-row charge state (one entry per row of the bank).
    std::vector<CellState> _cells;
    /// One bit per row, set by a deposit and cleared by the row's
    /// refresh: a superset of the non-default cells, so save and
    /// restore visit only these rows.
    std::vector<std::uint64_t> _touched; // analyze: ckpt-exempt(_touched) rebuilt by restoreState from the saved rows
    std::vector<BitFlip> _flips;
    double _peak = 0.0;
    /// Logical -> physical and inverse permutations (remap only):
    /// a pure function of the seeded config, so the constructor
    /// rebuilds them bit-identically.
    std::vector<Row> _toPhysical; // analyze: ckpt-exempt(_toPhysical) derived from remapSeed
    std::vector<Row> _toLogical;  // analyze: ckpt-exempt(_toLogical) derived from remapSeed
};

} // namespace dram
} // namespace graphene

#endif // DRAM_FAULT_MODEL_HH
