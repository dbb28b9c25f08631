/**
 * @file
 * Self-tests of the benchmark's own machinery: the legal-stream
 * guard, the copied simulation loops against the library's
 * runSystem / runActStream, the grid-seed re-derivation, and the
 * isolated replays against the in-loop layer counters.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "loops.hh"
#include "replay.hh"
#include "sim/experiment.hh"

namespace perfbench {
namespace {

namespace g = graphene;

void
expectSame(const sim::SystemResult &a, const sim::SystemResult &b)
{
    EXPECT_EQ(a.coreRequests, b.coreRequests);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.acts, b.acts);
    EXPECT_EQ(a.victimRowsRefreshed, b.victimRowsRefreshed);
    EXPECT_EQ(a.bitFlips, b.bitFlips);
    EXPECT_EQ(a.rowHitRate, b.rowHitRate);
    EXPECT_EQ(a.refreshEnergyOverhead, b.refreshEnergyOverhead);
}

void
expectSame(const sim::ActEngineResult &a, const sim::ActEngineResult &b)
{
    EXPECT_EQ(a.acts, b.acts);
    EXPECT_EQ(a.victimRowsRefreshed, b.victimRowsRefreshed);
    EXPECT_EQ(a.nrrEvents, b.nrrEvents);
    EXPECT_EQ(a.refreshCommands, b.refreshCommands);
    EXPECT_EQ(a.bitFlips, b.bitFlips);
    EXPECT_EQ(a.peakDisturbance, b.peakDisturbance);
    EXPECT_EQ(a.refreshEnergyOverhead, b.refreshEnergyOverhead);
}

std::vector<schemes::SchemeKind>
allKinds()
{
    std::vector<schemes::SchemeKind> kinds = {schemes::SchemeKind::None};
    for (auto k : schemes::evaluatedSchemes())
        kinds.push_back(k);
    return kinds;
}

// The stream bench/micro_table_update fed Graphene: uniform random
// rows every tRC, no refresh at all. That is more than W ACTs per
// reset window, and the guard must say so as a typed error.
TEST(LegalStreamGuard, RejectsMicroTableUpdateStream)
{
    const dram::TimingParams timing = dram::TimingParams::ddr4_2400();
    const StreamLimits limits = limitsFor(timing, 2);
    ActStream stream;
    stream.label = "micro_table_update";
    g::Rng rng(1);
    const std::uint64_t acts = limits.maxActs + 1000;
    for (std::uint64_t i = 0; i < acts; ++i)
        stream.events.push_back(
            {Cycle{i * timing.cRC().value()},
             Row{static_cast<Row::rep>(rng.nextRange(65536))},
             StreamEvent::Kind::Act, 0});
    const g::Result<void> r = checkLegalStream(stream, limits);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), g::ErrorCode::InvalidArgument);
    EXPECT_NE(r.error().message().find("more than W"), std::string::npos)
        << r.error().message();
}

TEST(LegalStreamGuard, RejectsSpacingAndBlackout)
{
    const dram::TimingParams timing = dram::TimingParams::ddr4_2400();
    const StreamLimits limits = limitsFor(timing, 2);
    ActStream tight;
    tight.events = {{Cycle{100}, Row{1}, StreamEvent::Kind::Act, 0},
                    {Cycle{101}, Row{2}, StreamEvent::Kind::Act, 0}};
    EXPECT_FALSE(checkLegalStream(tight, limits).ok());

    ActStream blackout;
    blackout.events = {{Cycle{1000}, Row::invalid(),
                        StreamEvent::Kind::Ref, 0},
                       {Cycle{1001}, Row{2}, StreamEvent::Kind::Act, 0}};
    EXPECT_FALSE(checkLegalStream(blackout, limits).ok());

    ActStream legal;
    legal.events = {
        {Cycle{1000}, Row::invalid(), StreamEvent::Kind::Ref, 0},
        {Cycle{1000} + limits.rfc, Row{2}, StreamEvent::Kind::Act, 0},
        {Cycle{1000} + limits.rfc + limits.rc, Row{3},
         StreamEvent::Kind::Act, 0}};
    EXPECT_TRUE(checkLegalStream(legal, limits).ok());
}

TEST(CopiedLoops, SystemLoopMatchesRunSystem)
{
    const auto workload = workloads::homogeneous("sphinx3", 16);
    for (const auto kind : allKinds()) {
        sim::SystemConfig config;
        config.windows = 0.001;
        config.seed = 5;
        config.scheme.kind = kind;
        const sim::SystemResult lib = sim::runSystem(config, workload);
        SpanTrace trace;
        const auto copy =
            copiedRunSystem(config, workload, &trace, "mem.access");
        ASSERT_TRUE(copy.ok());
        expectSame(copy.value().result, lib);
        EXPECT_EQ(trace.totals("mem.access").calls, lib.requests);
    }
}

TEST(CopiedLoops, EngineLoopMatchesRunActStream)
{
    for (const auto kind : allKinds()) {
        for (std::size_t p = 0; p < 6; ++p) {
            sim::ActEngineConfig config;
            config.windows = 0.02;
            config.scheme.kind = kind;
            auto lib_suite =
                workloads::patterns::adversarialSuite(65536, 9);
            const sim::ActEngineResult lib =
                sim::runActStream(config, *lib_suite[p]);
            auto suite = workloads::patterns::adversarialSuite(65536, 9);
            SpanTrace trace;
            const auto copy =
                copiedRunActStream(config, *suite[p], &trace, nullptr);
            ASSERT_TRUE(copy.ok());
            expectSame(copy.value().result, lib);
        }
    }
}

TEST(CopiedLoops, GridSeedsAreReDerived)
{
    sim::SystemConfig base;
    base.windows = 0.001;
    const std::vector<workloads::WorkloadSpec> suite = {
        workloads::homogeneous("mcf", 16)};
    const auto kinds = schemes::evaluatedSchemes();
    g::exp::RunOptions run;
    run.jobs = 1;
    g::exp::Runner runner(run);
    const auto rows = sim::runOverheadGrid(base, suite, kinds, runner);
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        sim::SystemConfig config = base;
        config.scheme.kind = kinds[i];
        config.seed = systemTrafficSeed(base, suite[0]);
        const auto copy = copiedRunSystem(config, suite[0], nullptr, "");
        ASSERT_TRUE(copy.ok());
        EXPECT_EQ(copy.value().result.victimRowsRefreshed,
                  rows[i].victimRows);
        EXPECT_EQ(copy.value().result.refreshEnergyOverhead,
                  rows[i].energyOverhead);
    }

    sim::ActEngineConfig adv;
    adv.windows = 0.05;
    const auto adv_rows =
        sim::runAdversarialGrid(adv, kinds, 3, runner, "adv");
    const auto names = workloads::patterns::adversarialSuite(65536, 3);
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        for (std::size_t p = 0; p < names.size(); ++p) {
            sim::ActEngineConfig config = adv;
            config.scheme.kind = kinds[k];
            auto pattern = std::move(workloads::patterns::adversarialSuite(
                65536,
                attackPatternSeed(adv, p, names[p]->name(), 3))[p]);
            const auto copy =
                copiedRunActStream(config, *pattern, nullptr, nullptr);
            ASSERT_TRUE(copy.ok());
            const sim::OverheadRow &row = adv_rows[k * names.size() + p];
            EXPECT_EQ(copy.value().result.victimRowsRefreshed,
                      row.victimRows);
            EXPECT_EQ(copy.value().result.refreshEnergyOverhead,
                      row.energyOverhead);
        }
    }
}

TEST(Replays, ReproduceInLoopCounters)
{
    const dram::TimingParams timing = dram::TimingParams::ddr4_2400();
    for (const auto kind : schemes::evaluatedSchemes()) {
        sim::ActEngineConfig config;
        config.windows = 0.05;
        config.scheme.kind = kind;
        auto suite = workloads::patterns::adversarialSuite(65536, 4);
        ActStream stream;
        const auto copy =
            copiedRunActStream(config, *suite[4], nullptr, &stream);
        ASSERT_TRUE(copy.ok());
        ASSERT_TRUE(checkLegalStream(stream, limitsFor(timing, 2)).ok());

        SpanTrace trace;
        schemes::SchemeSpec spec = config.scheme;
        spec.rowsPerBank = config.rowsPerBank;
        spec.timing = timing;
        const auto sr = replayScheme(stream, spec, "attack", trace);
        ASSERT_TRUE(sr.ok());
        EXPECT_EQ(sr.value().victimEvents,
                  copy.value().victimRefreshEvents);
        EXPECT_EQ(sr.value().acts, copy.value().result.acts);

        dram::FaultConfig fault;
        const std::uint64_t per_ref =
            dram::Rank(timing, 1, 65536, fault).rowsPerRefresh();
        const FaultReplay f =
            replayFault(stream, fault, 65536, per_ref, trace);
        EXPECT_EQ(f.peakDisturbance,
                  copy.value().result.peakDisturbance);
        EXPECT_EQ(f.flips, copy.value().result.bitFlips);

        if (kind == schemes::SchemeKind::Graphene) {
            const TableReplay t =
                replayTable(stream, grapheneConfigFor(spec), trace);
            EXPECT_GT(t.crossings, 0u);
            EXPECT_EQ(t.crossings, copy.value().victimRefreshEvents);
        }
    }
}

} // namespace
} // namespace perfbench
