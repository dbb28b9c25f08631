/**
 * @file
 * Tests for the Row Hammer charge-disturbance fault model.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "ckpt/io.hh"
#include "common/random.hh"
#include "dram/fault_model.hh"

namespace graphene {
namespace dram {
namespace {

FaultConfig
smallConfig(double threshold = 100.0, unsigned radius = 1)
{
    FaultConfig c;
    c.rowHammerThreshold = threshold;
    c.mu.assign(radius, 0.0);
    for (unsigned i = 1; i <= radius; ++i)
        c.mu[i - 1] = 1.0 / (static_cast<double>(i) * i);
    return c;
}

TEST(FaultModel, AdjacentDisturbanceAccumulates)
{
    FaultModel f(smallConfig(), 1000);
    for (std::uint64_t i = 0; i < 10; ++i)
        f.onActivate(Cycle{i}, Row{500});
    EXPECT_DOUBLE_EQ(f.disturbance(Row{499}), 10.0);
    EXPECT_DOUBLE_EQ(f.disturbance(Row{501}), 10.0);
    EXPECT_DOUBLE_EQ(f.disturbance(Row{502}), 0.0);
}

TEST(FaultModel, FlipAtThreshold)
{
    FaultModel f(smallConfig(100.0), 1000);
    for (std::uint64_t i = 0; i < 99; ++i)
        f.onActivate(Cycle{i}, Row{500});
    EXPECT_TRUE(f.flips().empty());
    f.onActivate(Cycle{99}, Row{500});
    ASSERT_EQ(f.flips().size(), 2u); // both neighbours flip
    EXPECT_EQ(f.flips()[0].victimRow, Row{499});
    EXPECT_EQ(f.flips()[1].victimRow, Row{501});
    EXPECT_EQ(f.flips()[0].cycle, Cycle{99});
}

TEST(FaultModel, RefreshResetsDisturbance)
{
    FaultModel f(smallConfig(100.0), 1000);
    for (std::uint64_t i = 0; i < 60; ++i)
        f.onActivate(Cycle{i}, Row{500});
    f.onRowRefresh(Row{499});
    for (std::uint64_t i = 0; i < 60; ++i)
        f.onActivate(Cycle{100 + i}, Row{500});
    // 499 was refreshed at 60 and saw only 60 more: no flip there.
    // 501 accumulated 120 >= 100: flipped.
    ASSERT_EQ(f.flips().size(), 1u);
    EXPECT_EQ(f.flips()[0].victimRow, Row{501});
}

TEST(FaultModel, DoubleSidedHalvesTheBudget)
{
    FaultModel f(smallConfig(100.0), 1000);
    // Alternating aggressors around row 500: each deposits 1 per ACT.
    for (std::uint64_t i = 0; i < 50; ++i) {
        f.onActivate(Cycle{2 * i}, Row{499});
        f.onActivate(Cycle{2 * i + 1}, Row{501});
    }
    // Row 500 received 100 units from 50 ACTs per side.
    bool flipped_500 = false;
    for (const auto &flip : f.flips())
        flipped_500 |= flip.victimRow == Row{500};
    EXPECT_TRUE(flipped_500);
}

TEST(FaultModel, NonAdjacentWeights)
{
    FaultModel f(smallConfig(100.0, 3), 1000);
    f.onActivate(Cycle{0}, Row{500});
    EXPECT_DOUBLE_EQ(f.disturbance(Row{499}), 1.0);
    EXPECT_DOUBLE_EQ(f.disturbance(Row{498}), 0.25);
    EXPECT_NEAR(f.disturbance(Row{497}), 1.0 / 9.0, 1e-12);
    EXPECT_DOUBLE_EQ(f.disturbance(Row{496}), 0.0);
}

TEST(FaultModel, EdgeRowsClip)
{
    FaultModel f(smallConfig(100.0, 2), 1000);
    f.onActivate(Cycle{0}, Row{0});
    EXPECT_DOUBLE_EQ(f.disturbance(Row{1}), 1.0);
    EXPECT_DOUBLE_EQ(f.disturbance(Row{2}), 0.25);
    f.onActivate(Cycle{1}, Row{999});
    EXPECT_DOUBLE_EQ(f.disturbance(Row{998}), 1.0);
}

TEST(FaultModel, RemapPermutationIsABijection)
{
    FaultConfig c = smallConfig();
    c.remap = true;
    FaultModel f(c, 1024);
    std::vector<bool> seen(1024, false);
    for (Row r{}; r.value() < 1024; ++r) {
        const auto n = f.physicalNeighbors(r, 1);
        for (Row v : n) {
            ASSERT_LT(v.value(), 1024u);
            // Every row has at most two distance-1 physical
            // neighbours; collect coverage via left neighbours.
        }
        (void)seen;
    }
    // Disturbance still lands somewhere and nowhere "logical".
    f.onActivate(Cycle{0}, Row{500});
    double total = 0.0;
    int disturbed = 0;
    for (Row r{}; r.value() < 1024; ++r) {
        total += f.disturbance(r);
        disturbed += f.disturbance(r) > 0;
    }
    EXPECT_EQ(disturbed, 2);
    EXPECT_DOUBLE_EQ(total, 2.0);
}

TEST(FaultModel, RemapBreaksLogicalAdjacency)
{
    FaultConfig c = smallConfig();
    c.remap = true;
    FaultModel f(c, 65536);
    // With a random permutation over 64K rows, the chance that a
    // logical neighbour is also a physical neighbour is negligible.
    f.onActivate(Cycle{0}, Row{500});
    EXPECT_DOUBLE_EQ(f.disturbance(Row{499}), 0.0);
    EXPECT_DOUBLE_EQ(f.disturbance(Row{501}), 0.0);
}

TEST(FaultModel, PhysicalNeighborsMatchDepositTargets)
{
    FaultConfig c = smallConfig(100.0, 2);
    c.remap = true;
    FaultModel f(c, 4096);
    const auto victims = f.physicalNeighbors(Row{1000}, 2);
    ASSERT_EQ(victims.size(), 4u);
    f.onActivate(Cycle{0}, Row{1000});
    for (Row v : victims)
        EXPECT_GT(f.disturbance(v), 0.0) << "victim " << v;
}

TEST(FaultModel, RemapIsDeterministicPerSeed)
{
    FaultConfig c = smallConfig();
    c.remap = true;
    FaultModel a(c, 4096), b(c, 4096);
    EXPECT_EQ(a.physicalNeighbors(Row{7}, 1), b.physicalNeighbors(Row{7}, 1));
    c.remapSeed = 999;
    FaultModel d(c, 4096);
    EXPECT_NE(a.physicalNeighbors(Row{7}, 1), d.physicalNeighbors(Row{7}, 1));
}

TEST(FaultModel, IdentityNeighborsWithoutRemap)
{
    FaultModel f(smallConfig(100.0, 2), 4096);
    const auto n = f.physicalNeighbors(Row{1000}, 2);
    EXPECT_EQ(n, (std::vector<Row>{Row{999}, Row{1001}, Row{998},
                                   Row{1002}}));
}

TEST(FaultModel, OneFlipRecordedPerExcursion)
{
    FaultModel f(smallConfig(10.0), 1000);
    for (std::uint64_t i = 0; i < 50; ++i)
        f.onActivate(Cycle{i}, Row{500});
    // Crossing once latches; no duplicate flip until refreshed.
    EXPECT_EQ(f.flips().size(), 2u);
    f.onRowRefresh(Row{499});
    for (std::uint64_t i = 0; i < 10; ++i)
        f.onActivate(Cycle{100 + i}, Row{500});
    EXPECT_EQ(f.flips().size(), 3u);
}

/** A saveState() stream decoded field by field. */
struct SavedState
{
    std::vector<std::tuple<std::uint32_t, double, bool>> cells;
    std::vector<std::tuple<std::uint32_t, std::uint64_t, double>> flips;
    double peak = 0.0;
};

std::vector<std::uint8_t>
saveBytes(const FaultModel &f)
{
    ckpt::Writer w;
    f.saveState(w);
    return w.data();
}

SavedState
decodeSaved(const FaultModel &f)
{
    const std::vector<std::uint8_t> bytes = saveBytes(f);
    ckpt::Reader r(bytes);
    SavedState s;
    const std::uint64_t live = r.u64();
    for (std::uint64_t i = 0; i < live; ++i) {
        const std::uint32_t row = r.u32();
        const double d = r.f64();
        s.cells.emplace_back(row, d, r.boolean());
    }
    const std::uint64_t flips = r.u64();
    for (std::uint64_t i = 0; i < flips; ++i) {
        const std::uint32_t row = r.u32();
        const std::uint64_t cycle = r.u64();
        s.flips.emplace_back(row, cycle, r.f64());
    }
    s.peak = r.f64();
    EXPECT_TRUE(r.finish().ok());
    return s;
}

std::vector<std::uint32_t>
savedRows(const FaultModel &f)
{
    std::vector<std::uint32_t> rows;
    for (const auto &cell : decodeSaved(f).cells)
        rows.push_back(std::get<0>(cell));
    return rows;
}

TEST(FaultModelSave, DepositedThenRefreshedRowIsNotWritten)
{
    FaultModel f(smallConfig(100.0), 1000);
    f.onActivate(Cycle{0}, Row{500});
    f.onActivate(Cycle{1}, Row{20});
    EXPECT_EQ(savedRows(f),
              (std::vector<std::uint32_t>{19, 21, 499, 501}));
    f.onRowRefresh(Row{499});
    f.onRowRefresh(Row{19});
    const SavedState s = decodeSaved(f);
    ASSERT_EQ(s.cells.size(), 2u);
    EXPECT_EQ(s.cells[0], std::make_tuple(21u, 1.0, false));
    EXPECT_EQ(s.cells[1], std::make_tuple(501u, 1.0, false));
    EXPECT_EQ(s.peak, 1.0) << "the peak survives the refresh";
}

TEST(FaultModelSave, FlippedRowsAreWritten)
{
    FaultModel f(smallConfig(10.0), 1000);
    for (std::uint64_t i = 0; i < 12; ++i)
        f.onActivate(Cycle{i}, Row{7});
    f.onActivate(Cycle{12}, Row{900});
    const SavedState s = decodeSaved(f);
    ASSERT_EQ(s.cells.size(), 4u);
    EXPECT_EQ(s.cells[0], std::make_tuple(6u, 12.0, true));
    EXPECT_EQ(s.cells[1], std::make_tuple(8u, 12.0, true));
    EXPECT_EQ(s.cells[2], std::make_tuple(899u, 1.0, false));
    EXPECT_EQ(s.cells[3], std::make_tuple(901u, 1.0, false));
    ASSERT_EQ(s.flips.size(), 2u);
    EXPECT_EQ(s.flips[0], std::make_tuple(6u, std::uint64_t{9}, 10.0));
    EXPECT_EQ(s.flips[1], std::make_tuple(8u, std::uint64_t{9}, 10.0));
    EXPECT_EQ(s.peak, 12.0);

    // A refresh clears the flipped cell; the flip log keeps it.
    f.onRowRefresh(Row{6});
    const SavedState after = decodeSaved(f);
    EXPECT_EQ(after.cells.size(), 3u);
    EXPECT_EQ(after.flips.size(), 2u);
}

TEST(FaultModelSave, RefreshingAnUntouchedRowIsANoOp)
{
    FaultModel f(smallConfig(100.0, 2), 1000);
    f.onActivate(Cycle{0}, Row{500});
    const std::vector<std::uint8_t> before = saveBytes(f);
    f.onRowRefresh(Row{100});
    f.onRowRefresh(Row{0});
    f.onRowRefresh(Row{999});
    EXPECT_EQ(saveBytes(f), before);
}

TEST(FaultModelSave, ZeroWeightDepositsAreNotWritten)
{
    // A zero coefficient at distance 2 touches rows it never
    // disturbs; only non-default cells are part of the state.
    FaultConfig c = smallConfig(100.0, 2);
    c.mu = {1.0, 0.0};
    FaultModel f(c, 1000);
    f.onActivate(Cycle{0}, Row{500});
    EXPECT_EQ(savedRows(f), (std::vector<std::uint32_t>{499, 501}));
}

/** Seeded activity: ACTs around a few aggressors, refreshes, flips. */
void
exercise(FaultModel &f, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::uint64_t i = 0; i < 4000; ++i) {
        const Row row{static_cast<Row::rep>(
            rng.bernoulli(0.7) ? 100 + rng.nextRange(8)
                               : rng.nextRange(f.numRows()))};
        if (rng.bernoulli(0.1))
            f.onRowRefresh(row);
        else
            f.onActivate(Cycle{i}, row);
    }
}

TEST(FaultModelSave, RestoreThenSaveIsByteIdentical)
{
    for (const bool remap : {false, true}) {
        FaultConfig c = smallConfig(60.0, 2);
        c.remap = remap;
        FaultModel f(c, 4096);
        exercise(f, 11);
        ASSERT_FALSE(f.flips().empty());
        const std::vector<std::uint8_t> saved = saveBytes(f);

        // Restore onto a fresh model and onto one with other state:
        // both must save the same bytes back.
        FaultModel fresh(c, 4096);
        FaultModel dirty(c, 4096);
        exercise(dirty, 12);
        for (FaultModel *target : {&fresh, &dirty}) {
            ckpt::Reader r(saved);
            target->restoreState(r);
            ASSERT_TRUE(r.finish().ok());
            EXPECT_EQ(saveBytes(*target), saved) << "remap " << remap;
        }

        // And the restored model evolves exactly as the original.
        exercise(f, 13);
        exercise(dirty, 13);
        EXPECT_EQ(saveBytes(dirty), saveBytes(f)) << "remap " << remap;
    }
}

} // namespace
} // namespace dram
} // namespace graphene
