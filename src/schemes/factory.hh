/**
 * @file
 * Construction of protection-scheme instances from a compact spec,
 * including the paper's per-threshold scaling rules for the
 * Section V-C sweep (PARA probability per threshold, CBT counter
 * doubling, Graphene/TWiCe re-derivation).
 */

#ifndef SCHEMES_FACTORY_HH
#define SCHEMES_FACTORY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hh"
#include "core/protection_scheme.hh"
#include "dram/timing.hh"

namespace graphene {
namespace schemes {

/** Which scheme to instantiate. */
enum class SchemeKind
{
    None,     ///< No protection (baseline performance reference).
    Graphene, ///< This paper's scheme (k = 2 as evaluated).
    Para,     ///< PARA at the near-complete-protection probability.
    ProHit,   ///< PRoHIT with 7 history entries.
    MrLoc,    ///< MRLoc with a 15-entry queue.
    Cbt,      ///< CBT, counters scaled per threshold (128 at 50K).
    TwiCe,    ///< TWiCe, table re-derived per threshold.
};

/** Everything needed to build one per-bank scheme instance. */
struct SchemeSpec
{
    SchemeKind kind = SchemeKind::Graphene;
    std::uint64_t rowHammerThreshold = 50000;
    std::uint64_t rowsPerBank = 65536;
    unsigned blastRadius = 1;
    /** Graphene reset-window divisor (paper evaluates k = 2). */
    unsigned grapheneK = 2;

    /** CBT contiguity assumption (Section II-C); set false when the
     *  device remaps rows internally. */
    bool cbtAssumeContiguous = true;
    dram::TimingParams timing = dram::TimingParams::ddr4_2400();
    std::uint64_t seed = 1;
};

/** @p spec sized for one bank of @p rows_per_bank rows under @p timing. */
inline SchemeSpec
bankSpec(SchemeSpec spec, std::uint64_t rows_per_bank,
         const dram::TimingParams &timing)
{
    spec.rowsPerBank = rows_per_bank;
    spec.timing = timing;
    return spec;
}

/** Human-readable name for @p kind. */
std::string schemeKindName(SchemeKind kind);

/** All schemes the overhead evaluation compares (Section V-B). */
std::vector<SchemeKind> evaluatedSchemes();

/**
 * Build one per-bank instance. Success holds nullptr for
 * SchemeKind::None; a spec whose derived per-scheme configuration
 * breaks any rule yields a Config error (all violated rules listed as
 * notes) instead of constructing.
 */
Result<std::unique_ptr<ProtectionScheme>>
makeScheme(const SchemeSpec &spec);

/**
 * Check @p spec without constructing a scheme: the same rules
 * makeScheme() applies. Lets grid drivers pre-flight each cell and
 * skip (rather than abort on) the invalid ones.
 */
Result<void> validateSchemeSpec(const SchemeSpec &spec);

/** CBT counter budget at @p rh_threshold (doubles per halving). */
unsigned cbtCountersFor(std::uint64_t rh_threshold);

/** CBT tree depth at @p rh_threshold (one level per halving). */
unsigned cbtLevelsFor(std::uint64_t rh_threshold);

} // namespace schemes
} // namespace graphene

#endif // SCHEMES_FACTORY_HH
