/**
 * @file
 * Google-benchmark microbenchmarks of the per-ACT critical path:
 * Misra-Gries table updates (hit / spill / replace — the paper's
 * two-CAM-search-plus-write pipeline, Figure 5) and the full per-ACT
 * path of every protection scheme behind mem::ProtectedRank.
 */

#include <benchmark/benchmark.h>

#include "common/random.hh"
#include "core/counter_table.hh"
#include "core/graphene.hh"
#include "mem/protected_rank.hh"
#include "schemes/factory.hh"

namespace {

using namespace graphene;

void
BM_CounterTableHit(benchmark::State &state)
{
    core::CounterTable table(81);
    table.processActivation(Row{42});
    for (auto _ : state)
        benchmark::DoNotOptimize(table.processActivation(Row{42}));
}
BENCHMARK(BM_CounterTableHit);

void
BM_CounterTableSpill(benchmark::State &state)
{
    core::CounterTable table(81);
    // Fill every slot beyond the spillover value so misses spill.
    for (Row r{}; r.value() < 81; ++r) {
        table.processActivation(r);
        table.processActivation(r);
    }
    Row miss{1000};
    for (auto _ : state)
        benchmark::DoNotOptimize(table.processActivation(miss++));
}
BENCHMARK(BM_CounterTableSpill);

void
BM_CounterTableReplaceHeavy(benchmark::State &state)
{
    // Round-robin over more rows than entries: the worst-case mix of
    // replacements and spills.
    core::CounterTable table(81);
    Row r{};
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.processActivation(r));
        r = Row{(r.value() + 1) % 200};
    }
}
BENCHMARK(BM_CounterTableReplaceHeavy);

void
BM_SchemeOnActivate(benchmark::State &state)
{
    // One bank driven through the protection kernel on a legal
    // stream: uniform random rows at the full ACT rate, with the
    // periodic REF rotation and bank timing in force. No ACT starts
    // less than tRC before a REF, so a reset window never holds more
    // than the W ACTs the schemes' tables are sized for.
    schemes::SchemeSpec spec;
    spec.kind = static_cast<schemes::SchemeKind>(state.range(0));
    mem::ProtectedRank kernel(
        dram::Rank(spec.timing, 1, spec.rowsPerBank, dram::FaultConfig{}),
        mem::buildBankSchemes(spec, 1,
                              [&spec](unsigned) { return spec.seed; }),
        spec.blastRadius, 0);
    dram::Bank &bank = kernel.rank().bank(0);
    const Cycle rc = spec.timing.cRC();
    Rng rng(1);
    Cycle cycle{};
    for (auto _ : state) {
        cycle = bank.earliestAct(cycle);
        kernel.catchUpRefresh(cycle + rc);
        cycle = bank.earliestAct(cycle);
        const Row row{static_cast<Row::rep>(rng.nextRange(65536))};
        bank.issueAct(cycle, row);
        bank.issuePrecharge(bank.earliestPrecharge(cycle));
        kernel.activate(cycle, 0, row);
        benchmark::DoNotOptimize(kernel.nrrEvents());
    }
    state.SetLabel(kernel.scheme(0)->name());
}
BENCHMARK(BM_SchemeOnActivate)
    ->Arg(static_cast<int>(schemes::SchemeKind::Graphene))
    ->Arg(static_cast<int>(schemes::SchemeKind::Para))
    ->Arg(static_cast<int>(schemes::SchemeKind::ProHit))
    ->Arg(static_cast<int>(schemes::SchemeKind::MrLoc))
    ->Arg(static_cast<int>(schemes::SchemeKind::Cbt))
    ->Arg(static_cast<int>(schemes::SchemeKind::TwiCe));

void
BM_GrapheneHammerLoop(benchmark::State &state)
{
    // The attacker-facing fast path: one hot row hammered; the trigger
    // fires every T updates.
    core::GrapheneConfig config;
    config.resetWindowDivisor = 2;
    core::Graphene graphene(config);
    RefreshAction action;
    Cycle cycle{};
    for (auto _ : state) {
        action.clear();
        graphene.onActivate(cycle, Row{12345}, action);
        cycle += Cycle{54};
        benchmark::DoNotOptimize(action);
    }
}
BENCHMARK(BM_GrapheneHammerLoop);

} // namespace
