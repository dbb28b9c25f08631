/**
 * @file
 * Differential model-checker for the aggressor trackers (paper
 * Sections III-C and VI).
 *
 * Every tracker behind core::AggressorTracker is run, step-locked,
 * against a brute-force exact per-row counter over randomized and
 * adversarially crafted ACT streams. After each activation the
 * checker asserts the properties Graphene's security argument rests
 * on:
 *
 *  - P1 *no underestimation* (Lemma 1): a tracked row's estimate is
 *    >= its actual count; an untracked row's actual count is within
 *    the tracker's shared-state bound (spillover / eviction minimum /
 *    completed buckets).
 *  - P2 *bounded overestimation* (Lemma 2 for Misra-Gries): for
 *    deterministic-bound trackers the estimate exceeds the actual
 *    count by at most overestimateBound(W) — W/(Nentry+1) for
 *    Misra-Gries. (Count-Min's bound is probabilistic and excluded.)
 *  - P3 *no false negative* under Graphene's policy: replaying the
 *    multiple-of-T crossing rule on the estimates, no row ever
 *    accumulates T actual activations without a victim refresh.
 *  - P4 *refresh-count sanity*: monotone-estimate trackers
 *    (Misra-Gries, Space Saving) issue at most W/T refreshes per
 *    reset window (the paper's worst-case bound), and no tracker
 *    issues more refreshes than activations.
 *  - P5 internal invariants: the Misra-Gries CounterTable's
 *    conservation and spillover lemmas (CounterTable::checkInvariants)
 *    are re-validated periodically.
 *
 * Failures never abort: they are collected as Violation records
 * carrying the stream family, seed, and step, and the offending
 * stream can be re-materialised bit-exactly (materializeStream) and
 * written as an ACT trace that workloads::TracePattern / sim::replay
 * accepts — every failure is replayable.
 */

#ifndef CHECK_MODEL_CHECKER_HH
#define CHECK_MODEL_CHECKER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "core/tracker.hh"
#include "core/tracker_scheme.hh"
#include "workloads/act_patterns.hh"

namespace graphene {
namespace check {

/**
 * Brute-force exact activation counter: the differential reference.
 */
class ExactCounter
{
  public:
    void
    processActivation(Row row)
    {
        ++_counts[row];
        ++_streamLength;
    }

    std::uint64_t
    count(Row row) const
    {
        auto it = _counts.find(row);
        return it == _counts.end() ? 0 : it->second;
    }

    void
    reset()
    {
        _counts.clear();
        _streamLength = 0;
    }

    std::uint64_t streamLength() const { return _streamLength; }

    const std::unordered_map<Row, std::uint64_t> &
    counts() const
    {
        return _counts;
    }

  private:
    std::unordered_map<Row, std::uint64_t> _counts;
    std::uint64_t _streamLength = 0;
};

/** Parameters of one model-checking campaign. */
struct ModelCheckConfig
{
    /** Entry budget Nentry for entry-based trackers. */
    unsigned tableEntries = 8;

    /** Tracking threshold T for the policy-level checks. */
    std::uint64_t threshold = 64;

    /** Row-address space the streams draw from. */
    std::uint64_t numRows = 2048;

    /** Activations per stream. */
    std::uint64_t streamLength = 24000;

    /**
     * Reset-window length in activations (tREFW/k expressed on the
     * ACT axis); trackers and the exact reference reset together at
     * every multiple. 0 = never reset.
     */
    std::uint64_t resetEvery = 10000;

    /** Base seed; stream s of a family uses seed + s. */
    std::uint64_t seed = 0x67261;

    /** Distinct seeds per (family, tracker) pair. */
    unsigned streamsPerFamily = 2;

    /** Steps between full cross-row reference sweeps (P1/P2 for all
     *  rows, not just the activated one) and P5 table audits. */
    std::uint64_t auditStride = 997;
};

/** One named generator of ACT streams. */
struct StreamFamily
{
    std::string name;
    std::function<std::unique_ptr<workloads::ActPattern>(
        const ModelCheckConfig &, std::uint64_t seed)>
        make;
};

/** The built-in randomized + adversarial families (>= 10). */
std::vector<StreamFamily> standardFamilies();

/** One property failure, with everything needed to replay it. */
struct Violation
{
    std::string family;   ///< Stream family name.
    std::string tracker;  ///< Tracker under test.
    std::string property; ///< "P1-underestimate", ...
    std::uint64_t seed = 0;
    std::uint64_t step = 0; ///< Activation index within the stream.
    Row row = Row::invalid(); ///< Row the property failed for.
    std::string detail;     ///< Human-readable specifics.
};

/**
 * Which guarantees a tracker under test claims; determines whether
 * the optional properties P2 (deterministic overestimate bound) and
 * P4's W/T window bound (monotone per-slot estimates) are enforced.
 */
struct TrackerProperties
{
    bool deterministicBound = true;
    bool monotoneEstimates = true;
};

/** The claimed properties of a built-in TrackerKind. */
TrackerProperties trackerKindProperties(core::TrackerKind kind);

/** Aggregate outcome of a campaign. */
struct ModelCheckReport
{
    std::uint64_t streams = 0;
    std::uint64_t activations = 0;
    std::uint64_t checks = 0;
    std::vector<Violation> violations;

    bool ok() const { return violations.empty(); }

    /** Multi-line human-readable summary (always includes seeds). */
    std::string summary() const;
};

/**
 * The differential model-checker.
 */
class ModelChecker
{
  public:
    explicit ModelChecker(ModelCheckConfig config = {});

    const ModelCheckConfig &config() const { return _config; }

    /**
     * Run every standard family x every TrackerKind (sized from the
     * config's entry budget) and merge the findings.
     */
    ModelCheckReport checkAll();

    /**
     * Run every standard family against one externally built tracker,
     * rebuilt per stream via @p make. @p props declares which
     * guarantees the tracker claims (and hence which of P2/P4 apply).
     */
    ModelCheckReport
    checkTracker(const std::string &tracker_name,
                 const std::function<
                     std::unique_ptr<core::AggressorTracker>()> &make,
                 const TrackerProperties &props);

    /**
     * Drive one stream through one tracker and the exact reference,
     * appending violations to @p report.
     */
    void runStream(const StreamFamily &family, std::uint64_t seed,
                   const std::string &tracker_name,
                   core::AggressorTracker &tracker,
                   const TrackerProperties &props,
                   ModelCheckReport &report) const;

    /**
     * Re-generate the exact row sequence of (family, seed) — the
     * replay path: write it with workloads::writeActTrace and feed it
     * back through TracePattern / the ACT engine.
     */
    std::vector<Row> materializeStream(const StreamFamily &family,
                                       std::uint64_t seed) const;

    /** Build a tracker of @p kind sized for this config. */
    std::unique_ptr<core::AggressorTracker>
    makeSizedTracker(core::TrackerKind kind) const;

  private:
    ModelCheckConfig _config;
};

} // namespace check
} // namespace graphene

#endif // CHECK_MODEL_CHECKER_HH
