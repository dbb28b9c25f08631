#include "check/model_checker.hh"

#include <algorithm>
#include <sstream>

#include "check/contracts.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/zipf.hh"
#include "core/tracker_count_min.hh"
#include "core/tracker_counter_table.hh"
#include "core/tracker_lossy_counting.hh"

namespace graphene {
namespace check {

namespace {

using workloads::ActPattern;

/** Uniform random rows over the whole address space. */
class UniformPattern : public ActPattern
{
  public:
    UniformPattern(std::uint64_t num_rows, std::uint64_t seed)
        : _numRows(num_rows), _rng(seed)
    {
    }

    std::string name() const override { return "uniform"; }

    Row
    next() override
    {
        return Row{static_cast<Row::rep>(_rng.nextRange(_numRows))};
    }

  private:
    std::uint64_t _numRows;
    Rng _rng;
};

/** Zipf-skewed rows (hot-row frequency shape of real workloads). */
class ZipfPattern : public ActPattern
{
  public:
    ZipfPattern(std::uint64_t num_rows, double theta,
                std::uint64_t seed)
        : _sampler(num_rows, theta), _rng(seed), _theta(theta)
    {
    }

    std::string
    name() const override
    {
        return "zipf-" + std::to_string(_theta);
    }

    Row
    next() override
    {
        return Row{static_cast<Row::rep>(_sampler.sample(_rng))};
    }

  private:
    ZipfSampler _sampler;
    Rng _rng;
    double _theta;
};

/**
 * A sweeping double-sided hammer: each victim is hammered from both
 * neighbours for a fixed burst, then the victim advances — the
 * "wave" shape that churns tracker entries while keeping every
 * aggressor individually hot.
 */
class DoubleSidedWavePattern : public ActPattern
{
  public:
    DoubleSidedWavePattern(std::uint64_t num_rows,
                           std::uint64_t acts_per_victim,
                           std::uint64_t seed)
        : _numRows(num_rows), _burst(std::max<std::uint64_t>(
                                  2, acts_per_victim)),
          _rng(seed)
    {
        _victim = pickStart();
    }

    std::string name() const override { return "double-sided-wave"; }

    Row
    next() override
    {
        const Row out = _upper ? _victim + 1 : _victim - 1;
        _upper = !_upper;
        if (++_count >= _burst) {
            _count = 0;
            _victim = _victim + 3;
            if (_victim.value() + 1 >= _numRows)
                _victim = pickStart();
        }
        return out;
    }

  private:
    Row
    pickStart()
    {
        return Row{
            static_cast<Row::rep>(1 + _rng.nextRange(_numRows / 4))};
    }

    std::uint64_t _numRows;
    std::uint64_t _burst;
    Rng _rng;
    Row _victim{1};
    std::uint64_t _count = 0;
    bool _upper = false;
};

/**
 * Drives groups of rows to *exactly* the tracking threshold T —
 * every row's count lands on the multiple-of-T boundary where the
 * refresh decision happens — then rotates to a fresh group.
 */
class ThresholdStraddlePattern : public ActPattern
{
  public:
    ThresholdStraddlePattern(std::uint64_t threshold, unsigned group,
                             std::uint64_t num_rows,
                             std::uint64_t seed)
        : _threshold(std::max<std::uint64_t>(1, threshold)),
          _group(std::max(1u, group)), _numRows(num_rows), _rng(seed)
    {
        newGroup();
    }

    std::string name() const override { return "threshold-straddle"; }

    Row
    next() override
    {
        if (_remaining == 0)
            newGroup();
        const Row out = _rows[_idx];
        _idx = (_idx + 1) % _rows.size();
        --_remaining;
        return out;
    }

  private:
    void
    newGroup()
    {
        _rows.clear();
        for (unsigned i = 0; i < _group; ++i)
            _rows.push_back(
                Row{static_cast<Row::rep>(_rng.nextRange(_numRows))});
        _idx = 0;
        // Round-robin until every row in the group has exactly T
        // activations.
        _remaining = _threshold * _rows.size();
    }

    std::uint64_t _threshold;
    unsigned _group;
    std::uint64_t _numRows;
    Rng _rng;
    std::vector<Row> _rows;
    std::size_t _idx = 0;
    std::uint64_t _remaining = 0;
};

/**
 * Quiet uniform background except for a single row hammered in a
 * burst centred on every reset-window boundary — the count
 * accumulates right up to the reset cycle and continues just after.
 */
class ResetStraddlePattern : public ActPattern
{
  public:
    ResetStraddlePattern(std::uint64_t reset_every,
                         std::uint64_t half_burst,
                         std::uint64_t num_rows, std::uint64_t seed)
        : _resetEvery(reset_every), _half(half_burst),
          _numRows(num_rows), _rng(seed),
          _hot(Row{static_cast<Row::rep>(_rng.nextRange(num_rows))})
    {
    }

    std::string name() const override { return "reset-straddle"; }

    Row
    next() override
    {
        const std::uint64_t step = _step++;
        if (_resetEvery != 0) {
            const std::uint64_t pos = step % _resetEvery;
            if (pos >= _resetEvery - _half || pos < _half)
                return _hot;
        }
        return Row{static_cast<Row::rep>(_rng.nextRange(_numRows))};
    }

  private:
    std::uint64_t _resetEvery;
    std::uint64_t _half;
    std::uint64_t _numRows;
    Rng _rng;
    Row _hot;
    std::uint64_t _step = 0;
};

/**
 * Hot rows laid out on a large odd stride (mod the row space) with a
 * thin uniform noise floor: stresses hash/bucket aliasing in sketch
 * trackers and row-id wraparound arithmetic.
 */
class StrideAliasPattern : public ActPattern
{
  public:
    StrideAliasPattern(unsigned hot_rows, std::uint64_t num_rows,
                       std::uint64_t seed)
        : _numRows(num_rows), _rng(seed)
    {
        const std::uint64_t base = _rng.nextRange(num_rows);
        for (unsigned i = 0; i < std::max(1u, hot_rows); ++i)
            _hot.push_back(Row{static_cast<Row::rep>(
                (base + static_cast<std::uint64_t>(i) * 4097) %
                num_rows)});
    }

    std::string name() const override { return "stride-alias"; }

    Row
    next() override
    {
        if (_rng.bernoulli(0.1))
            return Row{
                static_cast<Row::rep>(_rng.nextRange(_numRows))};
        const Row out = _hot[_idx];
        _idx = (_idx + 1) % _hot.size();
        return out;
    }

  private:
    std::uint64_t _numRows;
    Rng _rng;
    std::vector<Row> _hot;
    std::size_t _idx = 0;
};

} // namespace

std::vector<StreamFamily>
standardFamilies()
{
    using workloads::patterns::counterWorstCase;
    using workloads::patterns::mrLocAdversarial;
    using workloads::patterns::proHitAdversarial;
    using workloads::patterns::s1;
    using workloads::patterns::s2;
    using workloads::patterns::s4;

    std::vector<StreamFamily> families;
    auto add = [&families](std::string name, auto fn) {
        families.push_back(StreamFamily{std::move(name), fn});
    };

    add("uniform", [](const ModelCheckConfig &c, std::uint64_t seed) {
        return std::make_unique<UniformPattern>(c.numRows, seed);
    });
    add("zipf-0.99",
        [](const ModelCheckConfig &c, std::uint64_t seed)
            -> std::unique_ptr<ActPattern> {
            return std::make_unique<ZipfPattern>(c.numRows, 0.99,
                                                 seed);
        });
    add("zipf-1.2",
        [](const ModelCheckConfig &c, std::uint64_t seed)
            -> std::unique_ptr<ActPattern> {
            return std::make_unique<ZipfPattern>(c.numRows, 1.2,
                                                 seed);
        });
    add("single-row",
        [](const ModelCheckConfig &c, std::uint64_t seed)
            -> std::unique_ptr<ActPattern> {
            Rng rng(seed);
            return std::make_unique<workloads::SingleRowPattern>(
                Row{static_cast<Row::rep>(rng.nextRange(c.numRows))});
        });
    add("round-robin-hot",
        [](const ModelCheckConfig &c, std::uint64_t seed) {
            return s1(c.tableEntries, c.numRows, seed);
        });
    add("noisy-round-robin",
        [](const ModelCheckConfig &c, std::uint64_t seed) {
            return s2(c.tableEntries + 2, c.numRows, seed);
        });
    add("noisy-single",
        [](const ModelCheckConfig &c, std::uint64_t seed) {
            return s4(c.numRows, seed);
        });
    add("double-sided-wave",
        [](const ModelCheckConfig &c, std::uint64_t seed)
            -> std::unique_ptr<ActPattern> {
            return std::make_unique<DoubleSidedWavePattern>(
                c.numRows, c.threshold, seed);
        });
    add("threshold-straddle",
        [](const ModelCheckConfig &c, std::uint64_t seed)
            -> std::unique_ptr<ActPattern> {
            return std::make_unique<ThresholdStraddlePattern>(
                c.threshold, c.tableEntries + 1, c.numRows, seed);
        });
    add("reset-straddle",
        [](const ModelCheckConfig &c, std::uint64_t seed)
            -> std::unique_ptr<ActPattern> {
            return std::make_unique<ResetStraddlePattern>(
                c.resetEvery, c.threshold, c.numRows, seed);
        });
    add("prohit-adversarial",
        [](const ModelCheckConfig &c, std::uint64_t seed) {
            Rng rng(seed);
            const Row x{static_cast<Row::rep>(
                8 + rng.nextRange(c.numRows - 16))};
            return proHitAdversarial(x);
        });
    add("mrloc-adversarial",
        [](const ModelCheckConfig &c, std::uint64_t seed) {
            Rng rng(seed);
            const Row base{static_cast<Row::rep>(
                rng.nextRange(c.numRows / 2))};
            return mrLocAdversarial(base, Row{16});
        });
    add("counter-worst-case",
        [](const ModelCheckConfig &c, std::uint64_t seed) {
            return counterWorstCase(c.tableEntries + 1, c.numRows,
                                    seed);
        });
    add("stride-alias",
        [](const ModelCheckConfig &c, std::uint64_t seed)
            -> std::unique_ptr<ActPattern> {
            return std::make_unique<StrideAliasPattern>(
                2 * c.tableEntries, c.numRows, seed);
        });
    return families;
}

TrackerProperties
trackerKindProperties(core::TrackerKind kind)
{
    switch (kind) {
      case core::TrackerKind::MisraGries:
      case core::TrackerKind::SpaceSaving:
        return {true, true};
      case core::TrackerKind::LossyCounting:
        // Deterministic delta bound, but pruning + re-insertion can
        // re-cross a multiple of T, so the W/T window bound is out.
        return {true, false};
      case core::TrackerKind::CountMin:
      case core::TrackerKind::CountMinConservative:
        // Overestimation bound holds only with probability
        // 1 - 2^-depth per query: no hard bound to assert.
        return {false, false};
    }
    return {false, false};
}

std::string
ModelCheckReport::summary() const
{
    std::ostringstream os;
    os << "model-check: " << streams << " streams, " << activations
       << " activations, " << checks << " property checks, "
       << violations.size() << " violations\n";
    for (const auto &v : violations) {
        os << "  [" << v.property << "] tracker=" << v.tracker
           << " family=" << v.family << " seed=" << v.seed
           << " step=" << v.step << " row=" << v.row << ": "
           << v.detail << "\n";
    }
    return os.str();
}

ModelChecker::ModelChecker(ModelCheckConfig config)
    : _config(config)
{
    GRAPHENE_CHECK(_config.tableEntries > 0 && _config.threshold > 0 &&
                       _config.numRows >= 32 &&
                       _config.streamLength > 0,
                   "model checker: degenerate configuration");
}

std::unique_ptr<core::AggressorTracker>
ModelChecker::makeSizedTracker(core::TrackerKind kind) const
{
    const std::uint64_t window = _config.resetEvery
                                     ? _config.resetEvery
                                     : _config.streamLength;
    const std::uint64_t t = _config.threshold;

    // Entry-based trackers must satisfy Inequality 1 of the paper,
    // Nentry > W/T - 1, or the no-false-negative property P3 cannot
    // hold even for a correct implementation (spilled/evicted rows
    // may legitimately reach T). tableEntries acts as a floor.
    const unsigned entries = static_cast<unsigned>(std::max<std::uint64_t>(
        _config.tableEntries, window / t + 1));

    switch (kind) {
      case core::TrackerKind::MisraGries:
      case core::TrackerKind::SpaceSaving:
        return std::make_unique<core::CounterTableTracker>(
            entries, kind == core::TrackerKind::SpaceSaving
                         ? core::CounterTable::Policy::SpaceSaving
                         : core::CounterTable::Policy::MisraGries);
      case core::TrackerKind::LossyCounting: {
        // Bucket width W/T keeps the insertion delta below T (the
        // protection-parity sizing of core::makeTracker).
        const std::uint64_t width =
            std::max<std::uint64_t>(1, window / t);
        return std::make_unique<core::LossyCountingTracker>(width);
      }
      case core::TrackerKind::CountMin:
      case core::TrackerKind::CountMinConservative: {
        core::CountMinConfig cm;
        cm.depth = 4;
        cm.width = static_cast<unsigned>(
            std::max<std::uint64_t>(16, 4 * window / t));
        cm.conservativeUpdate =
            kind == core::TrackerKind::CountMinConservative;
        return std::make_unique<core::CountMinTracker>(cm);
      }
    }
    GRAPHENE_UNREACHABLE("model checker: unknown tracker kind");
}

ModelCheckReport
ModelChecker::checkAll()
{
    ModelCheckReport report;
    const auto families = standardFamilies();
    for (core::TrackerKind kind : core::allTrackerKinds()) {
        const TrackerProperties props = trackerKindProperties(kind);
        const std::string name = core::trackerKindName(kind);
        for (const auto &family : families) {
            for (unsigned s = 0; s < _config.streamsPerFamily; ++s) {
                auto tracker = makeSizedTracker(kind);
                runStream(family, _config.seed + s, name, *tracker,
                          props, report);
            }
        }
    }
    return report;
}

ModelCheckReport
ModelChecker::checkTracker(
    const std::string &tracker_name,
    const std::function<std::unique_ptr<core::AggressorTracker>()>
        &make,
    const TrackerProperties &props)
{
    ModelCheckReport report;
    for (const auto &family : standardFamilies()) {
        for (unsigned s = 0; s < _config.streamsPerFamily; ++s) {
            auto tracker = make();
            runStream(family, _config.seed + s, tracker_name,
                      *tracker, props, report);
        }
    }
    return report;
}

std::vector<Row>
ModelChecker::materializeStream(const StreamFamily &family,
                                std::uint64_t seed) const
{
    auto pattern = family.make(_config, seed);
    std::vector<Row> rows;
    rows.reserve(_config.streamLength);
    for (std::uint64_t i = 0; i < _config.streamLength; ++i)
        rows.push_back(pattern->next());
    return rows;
}

void
ModelChecker::runStream(const StreamFamily &family, std::uint64_t seed,
                        const std::string &tracker_name,
                        core::AggressorTracker &tracker,
                        const TrackerProperties &props,
                        ModelCheckReport &report) const
{
    auto pattern = family.make(_config, seed);
    ExactCounter exact;
    // Gold per-row activation count since the later of (window
    // reset, last victim refresh of that row): the quantity the
    // no-false-negative theorem bounds below T.
    std::unordered_map<Row, std::uint64_t> gold;
    // floor(estimate / T) at each row's last refresh — the policy
    // state TrackerScheme keeps (catch-up crossing rule).
    std::unordered_map<Row, std::uint64_t> levels;
    const std::uint64_t t = _config.threshold;
    std::uint64_t window_acts = 0;
    std::uint64_t window_nrr = 0;
    std::uint64_t total_nrr = 0;
    std::uint64_t stream_acts = 0;

    auto violation = [&](const char *property, std::uint64_t step,
                         Row row, std::string detail) {
        report.violations.push_back({family.name, tracker_name,
                                     property, seed, step, row,
                                     std::move(detail)});
    };

    // P1/P2 for one row against the exact reference.
    auto checkRow = [&](Row row, std::uint64_t step) {
        const std::uint64_t actual = exact.count(row);
        const std::uint64_t estimate =
            tracker.estimatedCount(row).value();
        const double bound = tracker.overestimateBound(
            ActCount{exact.streamLength()});
        ++report.checks;
        if (estimate == 0) {
            if (static_cast<double>(actual) > bound) {
                violation("P1-untracked-over-bound", step, row,
                          "actual " + std::to_string(actual) +
                              " untracked, shared-state bound " +
                              std::to_string(bound));
            }
            return;
        }
        if (estimate < actual) {
            violation("P1-underestimate", step, row,
                      "estimate " + std::to_string(estimate) +
                          " < actual " + std::to_string(actual));
            return;
        }
        if (props.deterministicBound &&
            static_cast<double>(estimate - actual) > bound) {
            violation("P2-overestimate-bound", step, row,
                      "estimate " + std::to_string(estimate) +
                          " - actual " + std::to_string(actual) +
                          " exceeds " + std::to_string(bound));
        }
    };

    // P4's per-window refresh bound, evaluated at window close.
    auto checkWindow = [&](std::uint64_t step) {
        ++report.checks;
        if (props.monotoneEstimates && window_nrr * t > window_acts) {
            violation("P4-refresh-count", step, Row::invalid(),
                      std::to_string(window_nrr) +
                          " refreshes in a window of " +
                          std::to_string(window_acts) +
                          " activations exceeds W/T");
        }
    };

    // P5: internal audits for the tracker kinds exposing them.
    auto auditInternals = [&](std::uint64_t step) {
        (void)step;
        ++report.checks;
        if (const auto *table =
                dynamic_cast<const core::CounterTableTracker *>(
                    &tracker))
            table->table().checkInvariants();
    };

    for (std::uint64_t step = 0; step < _config.streamLength;
         ++step) {
        if (_config.resetEvery != 0 && step != 0 &&
            step % _config.resetEvery == 0) {
            checkWindow(step);
            tracker.reset();
            exact.reset();
            gold.clear();
            levels.clear();
            window_acts = 0;
            window_nrr = 0;
        }

        const Row row = pattern->next();
        const std::uint64_t after =
            tracker.processActivation(row).value();
        exact.processActivation(row);
        ++window_acts;
        ++stream_acts;
        ++report.activations;

        // Graphene's refresh policy over the estimates: a victim
        // refresh when the estimate's T-level exceeds the level at
        // this row's last refresh (TrackerScheme::onActivate's
        // catch-up crossing rule — for shared-state sketches a
        // colliding row can push the estimate across a multiple
        // between this row's own ACTs).
        std::uint64_t &level = levels[row];
        const bool nrr = after != 0 && after / t > level;
        std::uint64_t &g = gold[row];
        if (nrr) {
            level = after / t;
            g = 0;
            ++window_nrr;
            ++total_nrr;
        } else {
            ++g;
        }

        // P3: the row just reached g actual activations since its
        // last refresh/reset with no refresh issued — the protection
        // fails exactly when g reaches T.
        ++report.checks;
        if (g >= t) {
            violation("P3-false-negative", step, row,
                      std::to_string(g) +
                          " unrefreshed activations reached T=" +
                          std::to_string(t));
            g = 0; // avoid cascading reports for the same row
        }

        checkRow(row, step);

        if (_config.auditStride != 0 &&
            step % _config.auditStride == 0) {
            auditInternals(step);
            for (const auto &kv : exact.counts())
                checkRow(kv.first, step);
        }
    }

    checkWindow(_config.streamLength);
    ++report.checks;
    if (total_nrr > stream_acts) {
        violation("P4-refresh-count", _config.streamLength,
                  Row::invalid(),
                  "more refreshes than activations");
    }
    ++report.streams;
}

} // namespace check
} // namespace graphene
