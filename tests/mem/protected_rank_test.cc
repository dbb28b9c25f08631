/**
 * @file
 * Tests for the per-ACT protection kernel: victim-row filtering,
 * refresh debt versus atomic bursts, REF fan-out to every bank's
 * scheme, and counters that agree with the rank and the probes.
 */

#include <gtest/gtest.h>

#include "mem/controller.hh"
#include "mem/protected_rank.hh"

namespace graphene {
namespace mem {
namespace {

constexpr std::uint64_t kRows = 1024;

/** A scheme that answers every ACT and REF with a scripted action. */
class ScriptedScheme : public ProtectionScheme
{
  public:
    std::string name() const override { return "Scripted"; }

    void onActivate(Cycle, Row, RefreshAction &action) override
    {
        ++activations;
        action = onAct;
    }

    void onRefresh(Cycle, RefreshAction &action) override
    {
        ++refreshes;
        action = onRef;
    }

    TableCost cost() const override { return {}; }

    RefreshAction onAct;
    RefreshAction onRef;
    unsigned activations = 0;
    unsigned refreshes = 0;
};

/** A kernel over @p banks banks; bank b's scheme lands in out[b]
 *  (null where @p unprotected names the bank). */
ProtectedRank
makeKernel(unsigned banks, unsigned chunk_rows,
           std::vector<ScriptedScheme *> &out, obs::Sink *sink = nullptr,
           int unprotected = -1)
{
    dram::FaultConfig fault;
    fault.rowHammerThreshold = 1e12;
    ProtectedRank::Schemes schemes;
    out.clear();
    for (unsigned b = 0; b < banks; ++b) {
        if (static_cast<int>(b) == unprotected) {
            schemes.push_back(nullptr);
            out.push_back(nullptr);
            continue;
        }
        auto scheme = std::make_unique<ScriptedScheme>();
        out.push_back(scheme.get());
        schemes.push_back(std::move(scheme));
    }
    return ProtectedRank(
        dram::Rank(dram::TimingParams::ddr4_2400(), banks, kRows, fault),
        std::move(schemes), 1, chunk_rows, sink);
}

const dram::TimingParams kTiming = dram::TimingParams::ddr4_2400();

TEST(ProtectedRank, DropsVictimRowsOutsideTheBank)
{
    std::vector<ScriptedScheme *> schemes;
    ProtectedRank kernel = makeKernel(1, 0, schemes);
    schemes[0]->onAct.victimRows = {Row{3}, Row{kRows}, Row{kRows + 7},
                                    Row{4}};
    kernel.activate(Cycle{0}, 0, Row{5});
    EXPECT_EQ(schemes[0]->activations, 1u);
    EXPECT_EQ(kernel.rank().nrrRowCount(), 2u);
    // Only the two in-range rows cost bank time.
    EXPECT_EQ(kernel.rank().bank(0).earliestAct(Cycle{0}),
              kTiming.cRC() * 2);
}

TEST(ProtectedRank, ChunkZeroKeepsBurstsAtomic)
{
    std::vector<ScriptedScheme *> schemes;
    ProtectedRank kernel = makeKernel(1, 0, schemes);
    for (unsigned r = 0; r < 5; ++r)
        schemes[0]->onAct.victimRows.push_back(Row{100 + r});
    kernel.activate(Cycle{0}, 0, Row{5});
    EXPECT_EQ(kernel.debt(0), Cycle{});
    EXPECT_EQ(kernel.rank().nrrRowCount(), 5u);
    EXPECT_EQ(kernel.rank().bank(0).earliestAct(Cycle{0}),
              kTiming.cRC() * 5);
}

TEST(ProtectedRank, BurstLargerThanChunkBecomesDebt)
{
    std::vector<ScriptedScheme *> schemes;
    ProtectedRank kernel = makeKernel(2, 2, schemes);
    for (unsigned r = 0; r < 5; ++r)
        schemes[0]->onAct.victimRows.push_back(Row{100 + r});
    schemes[1]->onAct.victimRows = {Row{7}, Row{8}};
    kernel.activate(Cycle{0}, 0, Row{5});
    kernel.activate(Cycle{0}, 1, Row{5});

    // The large burst is refreshed logically at once; its busy time
    // is owed, not blocked. The chunk-sized burst stays atomic.
    EXPECT_EQ(kernel.rank().nrrRowCount(), 7u);
    EXPECT_EQ(kernel.debt(0), kTiming.cRC() * 5);
    EXPECT_EQ(kernel.rank().bank(0).earliestAct(Cycle{0}), Cycle{0});
    EXPECT_EQ(kernel.debt(1), Cycle{});
    EXPECT_EQ(kernel.rank().bank(1).earliestAct(Cycle{0}),
              kTiming.cRC() * 2);

    kernel.payDebt(0, kTiming.cRC() * 2);
    EXPECT_EQ(kernel.debt(0), kTiming.cRC() * 3);
}

#ifndef GRAPHENE_OBS_OFF // reads the QueueStall trace events
TEST(ProtectedRank, ControllerPaysDebtOneChunkPerAccess)
{
    ControllerConfig config;
    config.scheme.kind = schemes::SchemeKind::Cbt;
    config.scheme.rowHammerThreshold = 2000;
    config.fault.rowHammerThreshold = 1e12;
    config.refreshChunkRows = 2;
    obs::Sink sink;
    config.obs = &sink;
    ChannelController ctrl(config);
    Cycle t{};
    const unsigned accesses = 4000;
    for (unsigned i = 0; i < accesses; ++i)
        t = ctrl.access(t, 0, Row{i % 2 ? 100u : 5000u}, false)
                .completion;

    unsigned stalls = 0;
    for (const obs::Event &e : sink.tracer.ring(0).events()) {
        if (e.kind != obs::EventKind::QueueStall)
            continue;
        ++stalls;
        EXPECT_GT(e.arg, 0u);
        EXPECT_LE(e.arg, (config.timing.cRC() * 2).value());
    }
    EXPECT_GT(stalls, 0u);
    EXPECT_LE(stalls, accesses);
}
#endif

TEST(ProtectedRank, RefreshReachesEveryBanksScheme)
{
    std::vector<ScriptedScheme *> schemes;
    ProtectedRank kernel = makeKernel(4, 0, schemes, nullptr, 2);
    schemes[1]->onRef.nrrAggressors = {Row{10}};
    kernel.catchUpRefresh(kTiming.cREFI() * 3);

    EXPECT_EQ(kernel.rank().refreshCount(), 3u);
    for (unsigned b = 0; b < 4; ++b) {
        if (b == 2) {
            EXPECT_EQ(kernel.scheme(b), nullptr);
            continue;
        }
        EXPECT_EQ(schemes[b]->refreshes, 3u) << "bank " << b;
        EXPECT_EQ(schemes[b]->activations, 0u);
    }
    // Bank 1's per-REF NRR was applied: blast radius 1, two rows.
    EXPECT_EQ(kernel.nrrEvents(), 3u);
    EXPECT_EQ(kernel.rank().nrrRowCount(), 6u);

    // Catching up to the same cycle again issues nothing.
    kernel.catchUpRefresh(kTiming.cREFI() * 3);
    EXPECT_EQ(kernel.rank().refreshCount(), 3u);
}

TEST(ProtectedRank, CountersMatchTheRankAndTheProbes)
{
    obs::Sink sink;
    std::vector<ScriptedScheme *> schemes;
    ProtectedRank kernel = makeKernel(1, 0, schemes, &sink);
    schemes[0]->onAct.nrrAggressors = {Row{50}};
    schemes[0]->onAct.victimRows = {Row{1}, Row{kRows}};

    // An engine-style paced stream over four refresh intervals.
    dram::Bank &bank = kernel.rank().bank(0);
    const Cycle end = kTiming.cREFI() * 4;
    Cycle cycle{};
    std::uint64_t acts = 0;
    while (true) {
        kernel.catchUpRefresh(cycle);
        cycle = bank.earliestAct(cycle);
        if (cycle >= end)
            break;
        bank.issueAct(cycle, Row{50});
        bank.issuePrecharge(bank.earliestPrecharge(cycle));
        kernel.activate(cycle, 0, Row{50});
        ++acts;
    }

    EXPECT_GT(acts, 0u);
    EXPECT_EQ(kernel.acts(), acts);
    EXPECT_EQ(kernel.nrrEvents(), acts);
    EXPECT_EQ(kernel.rank().refreshCount(), 3u);
    // Each ACT: one NRR (two neighbours) plus one in-range victim.
    EXPECT_EQ(kernel.rank().nrrRowCount(), acts * 3);

    if (obs::kEnabled) {
        const StatGroup &totals = sink.metrics.totals();
        EXPECT_EQ(totals.get("mem.acts"), static_cast<double>(acts));
        EXPECT_EQ(totals.get("mem.nrr_events"),
                  static_cast<double>(kernel.nrrEvents()));
        EXPECT_EQ(totals.get("mem.victim_rows"),
                  static_cast<double>(acts));
        EXPECT_EQ(totals.get("mem.refs"),
                  static_cast<double>(kernel.rank().refreshCount()));
    }
}

} // namespace
} // namespace mem
} // namespace graphene
