/**
 * @file
 * Tests for the alternative frequent-elements trackers (paper
 * Section VI): per-tracker semantics, the universal no-underestimate
 * property, the generic TrackerScheme protection theorem, and the
 * cost ordering that justifies Graphene's choice of Misra-Gries.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/random.hh"
#include "core/graphene.hh"
#include "core/tracker_count_min.hh"
#include "core/tracker_counter_table.hh"
#include "core/tracker_lossy_counting.hh"
#include "core/tracker_scheme.hh"

namespace graphene {
namespace core {
namespace {

// ---------------------------------------------------------------
// Space Saving semantics
// ---------------------------------------------------------------

TEST(SpaceSaving, FillsBeforeEvicting)
{
    CounterTableTracker t(3, CounterTable::Policy::SpaceSaving);
    EXPECT_EQ(t.processActivation(Row{1}).value(), 1u);
    EXPECT_EQ(t.processActivation(Row{2}).value(), 1u);
    EXPECT_EQ(t.processActivation(Row{3}).value(), 1u);
    EXPECT_EQ(t.processActivation(Row{1}).value(), 2u);
    EXPECT_EQ(t.table().minEstimatedCount().value(), 1u);
}

TEST(SpaceSaving, MissReplacesMinimumAndInheritsIt)
{
    CounterTableTracker t(2, CounterTable::Policy::SpaceSaving);
    t.processActivation(Row{1});
    t.processActivation(Row{1});
    t.processActivation(Row{2}); // counts {1:2, 2:1}
    EXPECT_EQ(t.processActivation(Row{9}).value(),
              2u); // evicts 2, inherits 1+1
    EXPECT_FALSE(t.estimatedCount(Row{2}).value());
    EXPECT_EQ(t.estimatedCount(Row{9}).value(), 2u);
    EXPECT_EQ(t.estimatedCount(Row{1}).value(), 2u);
}

TEST(SpaceSaving, MinBoundedByStreamOverCapacity)
{
    CounterTableTracker t(8, CounterTable::Policy::SpaceSaving);
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        t.processActivation(Row{static_cast<Row::rep>(rng.nextRange(100))});
        t.table().checkInvariants();
    }
    EXPECT_LE(t.table().minEstimatedCount().value(), 10000u / 8u);
}

TEST(SpaceSaving, ResetClears)
{
    CounterTableTracker t(4, CounterTable::Policy::SpaceSaving);
    t.processActivation(Row{1});
    t.reset();
    EXPECT_EQ(t.estimatedCount(Row{1}).value(), 0u);
    EXPECT_EQ(t.table().streamLength().value(), 0u);
}

TEST(CounterTableTracker, PolicyPicksNameAndBound)
{
    const CounterTableTracker mg(81, CounterTable::Policy::MisraGries);
    const CounterTableTracker ss(81, CounterTable::Policy::SpaceSaving);
    EXPECT_EQ(mg.name(), "misra-gries");
    EXPECT_EQ(ss.name(), "space-saving");
    // W / (Nentry + 1) for Misra-Gries, W / Nentry for Space Saving.
    EXPECT_DOUBLE_EQ(mg.overestimateBound(ActCount{8200}), 100.0);
    EXPECT_DOUBLE_EQ(ss.overestimateBound(ActCount{8100}), 100.0);
    // One CAM layout: 16 address bits + 21 count bits per entry.
    EXPECT_EQ(mg.cost(65536).camBits, 81u * 37u);
    EXPECT_EQ(ss.cost(65536).camBits, 81u * 37u);
}

// ---------------------------------------------------------------
// Lossy Counting semantics
// ---------------------------------------------------------------

TEST(LossyCounting, ColdRowsPrunedAtBucketBoundary)
{
    LossyCountingTracker t(10); // bucket width 10
    t.processActivation(Row{1});     // f=1, delta=0
    for (int i = 0; i < 9; ++i)
        t.processActivation(Row{static_cast<Row::rep>(100 + i)});
    // Boundary passed: rows with f + delta <= 1 are gone.
    EXPECT_EQ(t.estimatedCount(Row{1}).value(), 0u);
    EXPECT_EQ(t.currentBucket(), 2u);
}

TEST(LossyCounting, HotRowsSurvivePruning)
{
    LossyCountingTracker t(10);
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 5; ++i)
            t.processActivation(Row{7});
        for (int i = 0; i < 5; ++i)
            t.processActivation(Row{static_cast<Row::rep>(1000 + round * 5 +
                                                 i)});
    }
    EXPECT_GE(t.estimatedCount(Row{7}).value(), 100u);
}

TEST(LossyCounting, LateInsertionCarriesDelta)
{
    LossyCountingTracker t(10);
    for (int i = 0; i < 30; ++i)
        t.processActivation(Row{static_cast<Row::rep>(i)}); // 3 buckets pass
    const std::uint64_t est = t.processActivation(Row{999}).value();
    // f = 1, delta = currentBucket - 1 = 3.
    EXPECT_EQ(est, 1u + 3u);
}

TEST(LossyCounting, OccupancyStaysBounded)
{
    LossyCountingTracker t(50);
    Rng rng(5);
    for (int i = 0; i < 200000; ++i)
        t.processActivation(Row{static_cast<Row::rep>(rng.nextRange(65536))});
    // (1/e) log(eN) with 1/e = 50: a few hundred entries.
    EXPECT_LT(t.peakTrackedRows(), 1000u);
}

// ---------------------------------------------------------------
// Count-Min semantics
// ---------------------------------------------------------------

TEST(CountMin, ExactWithoutCollisions)
{
    CountMinConfig config;
    config.width = 4096;
    config.conservativeUpdate = false;
    CountMinTracker t(config);
    for (int i = 0; i < 100; ++i)
        t.processActivation(Row{42});
    EXPECT_GE(t.estimatedCount(Row{42}).value(), 100u);
    EXPECT_LE(t.estimatedCount(Row{42}).value(), 105u); // tiny collision slack
}

TEST(CountMin, CollisionsOnlyInflate)
{
    CountMinConfig config;
    config.width = 4; // force collisions
    config.conservativeUpdate = false;
    CountMinTracker t(config);
    Rng rng(7);
    std::map<Row, std::uint64_t> actual;
    for (int i = 0; i < 5000; ++i) {
        const Row row = Row{static_cast<Row::rep>(rng.nextRange(64))};
        ++actual[row];
        t.processActivation(row);
    }
    for (const auto &kv : actual)
        EXPECT_GE(t.estimatedCount(kv.first).value(), kv.second);
}

TEST(CountMin, ConservativeUpdateIsTighterNeverLower)
{
    CountMinConfig plain_cfg;
    plain_cfg.width = 32;
    plain_cfg.conservativeUpdate = false;
    CountMinConfig cu_cfg = plain_cfg;
    cu_cfg.conservativeUpdate = true;
    CountMinTracker plain(plain_cfg), cu(cu_cfg);

    Rng rng(11);
    std::map<Row, std::uint64_t> actual;
    for (int i = 0; i < 20000; ++i) {
        const Row row = Row{static_cast<Row::rep>(rng.nextRange(256))};
        ++actual[row];
        plain.processActivation(row);
        cu.processActivation(row);
    }
    std::uint64_t plain_total = 0, cu_total = 0;
    for (const auto &kv : actual) {
        EXPECT_GE(cu.estimatedCount(kv.first).value(), kv.second);
        plain_total += plain.estimatedCount(kv.first).value();
        cu_total += cu.estimatedCount(kv.first).value();
    }
    EXPECT_LT(cu_total, plain_total);
}

TEST(CountMin, NoCamBits)
{
    CountMinTracker t(CountMinConfig{});
    EXPECT_EQ(t.cost(65536).camBits, 0u);
    EXPECT_GT(t.cost(65536).sramBits, 0u);
}

// ---------------------------------------------------------------
// Universal properties across all trackers
// ---------------------------------------------------------------

GrapheneConfig
smallGraphene()
{
    GrapheneConfig c;
    c.rowHammerThreshold = 2000;
    c.resetWindowDivisor = 2;
    return c;
}

class TrackerProperty : public ::testing::TestWithParam<TrackerKind>
{
};

TEST_P(TrackerProperty, NeverUnderestimates)
{
    auto tracker = makeTracker(GetParam(), smallGraphene());
    Rng rng(23);
    std::map<Row, std::uint64_t> actual;
    for (int i = 0; i < 60000; ++i) {
        const Row row = rng.bernoulli(0.3)
                            ? Row{50}
                            : Row{static_cast<Row::rep>(
                                  rng.nextRange(2048))};
        ++actual[row];
        tracker->processActivation(row);
        if (i % 211 == 0) {
            for (const auto &kv : actual) {
                const auto est =
                    tracker->estimatedCount(kv.first).value();
                if (est != 0) {
                    ASSERT_GE(est, kv.second)
                        << tracker->name() << " row " << kv.first
                        << " step " << i;
                }
            }
        }
    }
}

TEST_P(TrackerProperty, HotRowAlwaysIndividuallyTracked)
{
    // A row hammered at a rate far above T must stay visible (its
    // estimate must not report 0) once it has accumulated T actual
    // activations — otherwise the scheme could never trigger.
    auto tracker = makeTracker(GetParam(), smallGraphene());
    const std::uint64_t t = smallGraphene().trackingThreshold().value();
    Rng rng(29);
    std::uint64_t hot_actual = 0;
    for (int i = 0; i < 100000; ++i) {
        if (rng.bernoulli(0.5)) {
            ++hot_actual;
            tracker->processActivation(Row{50});
        } else {
            tracker->processActivation(
                Row{static_cast<Row::rep>(rng.nextRange(4096))});
        }
        if (hot_actual >= t) {
            ASSERT_GE(tracker->estimatedCount(Row{50}).value(),
                      hot_actual)
                << tracker->name();
        }
    }
}

TEST_P(TrackerProperty, SchemeTheoremHolds)
{
    // The Graphene theorem generalises: with any no-underestimate
    // tracker, no row's actual count advances by more than T without
    // a victim refresh.
    const GrapheneConfig config = smallGraphene();
    TrackerScheme scheme(makeTracker(GetParam(), config), config);
    const std::uint64_t t = scheme.trackingThreshold().value();
    const Cycle window = config.resetWindowCycles();

    Rng rng(31);
    std::map<Row, std::uint64_t> actual, at_refresh;
    std::uint64_t window_idx = 0;
    RefreshAction action;
    for (std::uint64_t i = 0; i < 250000; ++i) {
        const Cycle cycle{i * 54};
        if (cycle / window != window_idx) {
            window_idx = cycle / window;
            actual.clear();
            at_refresh.clear();
        }
        const Row row = rng.bernoulli(0.4)
                            ? Row{static_cast<Row::rep>(100 + i % 3)}
                            : Row{static_cast<Row::rep>(rng.nextRange(4096))};
        ++actual[row];
        action.clear();
        scheme.onActivate(cycle, row, action);
        for (Row a : action.nrrAggressors)
            at_refresh[a] = actual[a];
        const std::uint64_t base =
            at_refresh.count(row) ? at_refresh[row] : 0;
        ASSERT_LE(actual[row] - base, t)
            << scheme.name() << " row " << row << " step " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllTrackers, TrackerProperty,
    ::testing::ValuesIn(allTrackerKinds()),
    [](const auto &info) {
        std::string name = trackerKindName(info.param);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(TrackerCosts, MisraGriesIsTheCheapest)
{
    // The Section VI punchline: at protection parity, Misra-Gries
    // needs the fewest bits.
    const GrapheneConfig config; // T_RH = 50K, k = 1
    const auto mg_bits =
        makeTracker(TrackerKind::MisraGries, config)
            ->cost(65536)
            .totalBits();
    for (const auto kind :
         {TrackerKind::SpaceSaving, TrackerKind::LossyCounting,
          TrackerKind::CountMin}) {
        const auto bits =
            makeTracker(kind, config)->cost(65536).totalBits();
        EXPECT_GE(bits, mg_bits) << trackerKindName(kind);
    }
    // And the sketch / LC structures are several times larger.
    EXPECT_GT(makeTracker(TrackerKind::LossyCounting, config)
                  ->cost(65536)
                  .totalBits(),
              3 * mg_bits);
    EXPECT_GT(makeTracker(TrackerKind::CountMin, config)
                  ->cost(65536)
                  .totalBits(),
              3 * mg_bits);
}

TEST(TrackerScheme, MatchesGrapheneOnMisraGries)
{
    // The generic wrapper over Misra-Gries must behave exactly like
    // the dedicated Graphene implementation.
    const GrapheneConfig config = smallGraphene();
    TrackerScheme generic(
        makeTracker(TrackerKind::MisraGries, config), config);
    Graphene dedicated(config);

    Rng rng(41);
    RefreshAction a1, a2;
    for (std::uint64_t i = 0; i < 100000; ++i) {
        const Row row = rng.bernoulli(0.5)
                            ? Row{7}
                            : Row{static_cast<Row::rep>(
                                  rng.nextRange(512))};
        a1.clear();
        a2.clear();
        generic.onActivate(Cycle{i * 54}, row, a1);
        dedicated.onActivate(Cycle{i * 54}, row, a2);
        ASSERT_EQ(a1.nrrAggressors, a2.nrrAggressors)
            << "step " << i;
    }
}

} // namespace
} // namespace core
} // namespace graphene
