/**
 * @file
 * Workload `attack_stream`: the Figure 8(b) path. sim::runAdversarialGrid
 * over the six S1-S4 patterns × the four evaluated schemes at the full
 * ACT rate, one tREFW per cell, on an exp::Runner with one worker. No
 * cores, Zipf or controller: the time per ACT goes to the scheme's
 * onActivate (Graphene's table crossing thresholds and issuing NRRs),
 * FaultModel deposit and the refresh rotation. A scheme-layer change
 * shows here; a Zipf change must not.
 */

#include <algorithm>
#include <iostream>

#include "loops.hh"
#include "paths.hh"
#include "replay.hh"
#include "sim/experiment.hh"

namespace perfbench {

namespace exp = graphene::exp;
using graphene::Result;
using graphene::strprintf;

namespace {

/** Set-ups timed per repetition (set-up is microseconds here). */
constexpr unsigned kSetupSamples = 64;

/**
 * ACT rate of the isolated replays' input. At the full rate the engine
 * lets an ACT start less than tRC before a REF, one extra ACT per
 * tREFI, which packs ~681.0K ACTs into a reset window against
 * W = 679.2K: the guard rejects those streams (counted in
 * guard.rejected_streams.attack). The engine floors each ACT slot to
 * a whole cycle, so every rate above tRC/(tRC + 1 cycle) = 54/55 still
 * issues one ACT per 54 cycles; at 0.98 the slots are 55 cycles apart
 * and the same cells fit W, so the replays run on a legal stream.
 */
constexpr double kReplayRate = 0.98;

/** The traced copy of the step loop spans one ACT slot in this many. */
constexpr unsigned kSampleEvery = 16;

struct AttackPlan
{
    sim::ActEngineConfig base;
    std::vector<schemes::SchemeKind> kinds;
    std::uint64_t suiteSeed = 0;
    std::vector<std::string> patterns;
};

AttackPlan
attackPlan(const Options &options, bool probe)
{
    AttackPlan plan;
    plan.base.windows =
        options.size == Size::Tiny || probe ? 0.02 : 1.0;
    plan.kinds = schemes::evaluatedSchemes();
    plan.suiteSeed = options.seed;
    for (const auto &p : workloads::patterns::adversarialSuite(
             plan.base.rowsPerBank, plan.suiteSeed))
        plan.patterns.push_back(p->name());
    return plan;
}

/** The pattern instance runAdversarialGrid builds for cell @p index. */
std::unique_ptr<workloads::ActPattern>
patternFor(const AttackPlan &plan, std::size_t index)
{
    auto suite = workloads::patterns::adversarialSuite(
        plan.base.rowsPerBank,
        attackPatternSeed(plan.base, index, plan.patterns[index],
                          plan.suiteSeed));
    return std::move(suite[index]);
}

sim::ActEngineConfig
cellConfig(const AttackPlan &plan, schemes::SchemeKind kind)
{
    sim::ActEngineConfig config = plan.base;
    config.scheme.kind = kind;
    return config;
}

exp::CellStats
toStats(const sim::ActEngineResult &r)
{
    exp::CellStats s;
    s.acts = r.acts;
    s.victimRowsRefreshed = r.victimRowsRefreshed;
    s.bitFlips = r.bitFlips;
    s.energyOverhead = r.refreshEnergyOverhead;
    s.windows = r.windows;
    return s;
}

bool
sameResult(const sim::ActEngineResult &a, const sim::ActEngineResult &b)
{
    return a.acts == b.acts &&
           a.victimRowsRefreshed == b.victimRowsRefreshed &&
           a.nrrEvents == b.nrrEvents &&
           a.refreshCommands == b.refreshCommands &&
           a.bitFlips == b.bitFlips &&
           a.peakDisturbance == b.peakDisturbance &&
           a.refreshEnergyOverhead == b.refreshEnergyOverhead &&
           a.windows == b.windows;
}

/** A repetition's inputs and runner, built before the timed call. */
struct Prepared
{
    AttackPlan plan;
    std::string jsonl;
    std::unique_ptr<exp::Runner> runner;
};

Prepared
prepare(const Options &options, bool probe, const std::string &jsonl)
{
    Prepared p;
    p.plan = attackPlan(options, probe);
    p.jsonl = jsonl;
    exp::RunOptions run;
    run.jobs = 1;
    run.jsonlPath = jsonl;
    p.runner = std::make_unique<exp::Runner>(run);
    return p;
}

GridPass
runGrid(Prepared p, Report &report)
{
    const std::int64_t t0 = nowNs();
    const std::vector<sim::OverheadRow> rows = sim::runAdversarialGrid(
        p.plan.base, p.plan.kinds, p.plan.suiteSeed, *p.runner,
        "attack_stream");
    const double wall_s = secondsSince(t0);
    p.runner.reset(); // closes the artifact
    const std::size_t cells = p.plan.kinds.size() * p.plan.patterns.size();
    report.check(rows.size() == cells, "attack_stream grid lost cells");
    return readGridPass(p.jsonl, wall_s, cells, report);
}

/** One real ActStreamEngine run of a cell, checked against the grid. */
sim::ActEngineResult
engineCell(const AttackPlan &plan, schemes::SchemeKind kind,
           std::size_t index, const CellMap &grid, SpanTrace *trace,
           Report &report)
{
    auto pattern = patternFor(plan, index);
    const sim::ActEngineConfig config = cellConfig(plan, kind);
    std::unique_ptr<sim::ActStreamEngine> engine;
    maybeSpan(trace, trace ? trace->id("sim.engine_build") : 0, [&] {
        engine = std::make_unique<sim::ActStreamEngine>(config, *pattern);
    });
    if (trace)
        trace->open(trace->id("sim.engine_run"));
    while (engine->step()) {
    }
    const sim::ActEngineResult r = engine->finish();
    if (trace)
        trace->close(r.acts);
    const std::string name = schemes::schemeKindName(kind);
    const auto it = grid.find(cellKey(plan.patterns[index], name));
    report.check(it != grid.end() && it->second == toStats(r),
                 "ActStreamEngine diverged from the grid on " +
                     plan.patterns[index] + "/" + name);
    return r;
}

/** Graphene's peak per pattern, by running its cells on the engine. */
std::vector<double>
graphenePeaks(const AttackPlan &plan, const CellMap &grid,
              Report &report)
{
    std::vector<double> peaks;
    for (std::size_t i = 0; i < plan.patterns.size(); ++i)
        peaks.push_back(engineCell(plan, schemes::SchemeKind::Graphene, i,
                                   grid, nullptr, report)
                            .peakDisturbance);
    return peaks;
}

void
addPeaks(const AttackPlan &plan, const std::vector<double> &peaks,
         Digest &digest)
{
    for (std::size_t i = 0; i < plan.patterns.size(); ++i)
        digest.add("peak " + plan.patterns[i] + " Graphene " +
                   exact(peaks[i]));
}

} // namespace

void
runAttackStream(const Options &options, Report &report, Digest &digest)
{
    std::vector<double> setup_s, wall_s, rate, out_mb;
    double timed = 0.0;
    AttackPlan plan;
    GridPass first;
    for (unsigned rep = 0; rep == 0 || timed < options.seconds; ++rep) {
        const std::string jsonl =
            options.workDir + strprintf("/attack_stream.%u.jsonl", rep);
        Prepared p;
        for (unsigned s = 0; s < kSetupSamples; ++s) {
            const std::int64_t s0 = nowNs();
            p = prepare(options, false, jsonl);
            setup_s.push_back(secondsSince(s0));
        }
        plan = p.plan;

        GridPass pass = runGrid(std::move(p), report);
        timed += pass.wallS;
        std::cerr << "rep " << rep << " wall_s " << pass.wallS << "\n";
        wall_s.push_back(pass.wallS);
        rate.push_back(static_cast<double>(pass.acts) / pass.wallS);
        out_mb.push_back(static_cast<double>(pass.artifact.bytes) / 1e6);
        if (rep == 0)
            first = std::move(pass);
        else
            report.check(pass.cells == first.cells,
                         "attack_stream repetitions disagree");
    }

    const std::vector<double> peaks =
        graphenePeaks(plan, first.cells, report);
    addCells(first.cells, digest);
    addPeaks(plan, peaks, digest);
    const double peak = *std::max_element(peaks.begin(), peaks.end());
    const double threshold =
        static_cast<double>(plan.base.scheme.rowHammerThreshold);
    report.check(peak / threshold < 1.0,
                 "attack_stream: Graphene peak disturbance reached T");

    report.metric("setup_s", median(setup_s), "s");
    report.metric("wall_s", median(wall_s), "s");
    report.metric("acts_per_s", median(rate), "ACT/s");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    report.metric("out_mb", median(out_mb), "MB");
    report.metric("ok_ratio", report.okRatio(), "ratio");
    report.metric("graphene_peak_ratio", peak / threshold, "ratio");
    report.metric("graphene_refresh_energy",
                  1.0 + grapheneEnergy(first.cells), "ratio");
}

void
traceAttackPath(const Options &options, bool primary, SpanTrace &trace,
                Report &report, Digest &digest)
{
    const AttackPlan plan = attackPlan(options, !primary);

    // 1. The untraced reference: the grid itself.
    const GridPass ref = runGrid(
        prepare(options, !primary,
                options.workDir + "/trace_attack.jsonl"),
        report);
    report.metric("exp.runner_overhead_s",
                  ref.wallS - ref.artifact.cellWallS, "s");

    // 2. Each cell on the real engine: build and step cost.
    std::vector<sim::ActEngineResult> engine;
    double engine_wall = 0.0;
    for (const auto kind : plan.kinds)
        for (std::size_t i = 0; i < plan.patterns.size(); ++i) {
            const std::int64_t t0 = nowNs();
            engine.push_back(
                engineCell(plan, kind, i, ref.cells, &trace, report));
            engine_wall += secondsSince(t0);
        }
    report.metric("sim.engine_build_ms",
                  trace.totals("sim.engine_build").nsPerCall() * 1e-6,
                  "ms");
    report.metric("sim.engine_step_ns",
                  trace.totals("sim.engine_run").nsPerCall(), "ns");

    // 3. The copied step loop with spans: attribution of the step.
    double loop_wall = 0.0;
    std::vector<double> peaks;
    std::size_t cell = 0;
    for (const auto kind : plan.kinds) {
        for (std::size_t i = 0; i < plan.patterns.size(); ++i, ++cell) {
            const std::string label =
                plan.patterns[i] + "/" + schemes::schemeKindName(kind);
            auto pattern = patternFor(plan, i);
            const std::int64_t t0 = nowNs();
            Result<EngineLoopResult> r = copiedRunActStream(
                cellConfig(plan, kind), *pattern, &trace, nullptr,
                kSampleEvery);
            loop_wall += secondsSince(t0);
            if (!r.ok()) {
                report.attempt(false);
                report.fail(r.error().describe());
                continue;
            }
            report.attempt(r.value().result.bitFlips == 0);
            report.check(sameResult(r.value().result, engine[cell]),
                         "copied engine loop diverged on " + label);
            if (kind == schemes::SchemeKind::Graphene)
                peaks.push_back(r.value().result.peakDisturbance);
        }
    }
    if (peaks.size() == plan.patterns.size()) {
        CellMap mine;
        for (std::size_t c = 0; c < engine.size(); ++c)
            mine[cellKey(plan.patterns[c % plan.patterns.size()],
                         schemes::schemeKindName(
                             plan.kinds[c / plan.patterns.size()]))] =
                toStats(engine[c]);
        addCells(mine, digest);
        addPeaks(plan, peaks, digest);
    }

    std::vector<std::string> layers = {"dram.rank_ref", "dram.bank",
                                       "workloads.pattern",
                                       "dram.rank_act", "dram.nrr"};
    for (const auto kind : plan.kinds) {
        const std::string name = schemes::schemeKindName(kind);
        layers.push_back("schemes." + name + ".on_activate");
        layers.push_back("schemes." + name + ".on_refresh");
    }
    report.metric("dram.rank_ref_us",
                  trace.totals("dram.rank_ref").nsPerCall() * 1e-3, "us");
    report.metric("trace.overhead_ratio", loop_wall / engine_wall,
                  "ratio");
    report.metric("trace.unattributed_share",
                  unattributedShare(trace, "sim.engine_step", layers),
                  "ratio");

    // 4. The guard on each cell's full-rate stream, then the isolated
    // replays on the same cell at kReplayRate (see there).
    const StreamLimits limits =
        limitsFor(plan.base.timing, plan.base.scheme.grapheneK);
    StreamGuard full_rate(limits), replay_input(limits);
    dram::FaultConfig fault;
    fault.rowHammerThreshold =
        static_cast<double>(plan.base.scheme.rowHammerThreshold);
    fault.mu = {1.0};
    const std::uint64_t rows = plan.base.rowsPerBank;
    const std::uint64_t rows_per_refresh =
        dram::Rank(plan.base.timing, 1, rows, fault).rowsPerRefresh();
    const unsigned pattern_id = trace.id("workloads.pattern_isolated");
    TableReplay table;
    for (const auto kind : plan.kinds) {
        const std::string name = schemes::schemeKindName(kind);
        std::uint64_t kind_acts = 0, kind_events = 0;
        for (std::size_t i = 0; i < plan.patterns.size(); ++i) {
            const std::string label = plan.patterns[i] + "/" + name;
            ActStream stream;
            stream.label = label;
            auto pattern = patternFor(plan, i);
            Result<EngineLoopResult> r = copiedRunActStream(
                cellConfig(plan, kind), *pattern, nullptr, &stream);
            if (!r.ok()) {
                report.fail(r.error().describe());
                continue;
            }
            full_rate.admit(stream);

            // The pattern alone, on a fresh instance of the same rows.
            const std::uint64_t acts = r.value().result.acts;
            auto fresh = patternFor(plan, i);
            std::uint64_t row_sum = 0;
            trace.open(pattern_id);
            for (std::uint64_t a = 0; a < acts; ++a)
                row_sum += fresh->next().value();
            trace.close(acts);
            report.check(acts == 0 || row_sum != 0,
                         "pattern " + label + " produced only row 0");

            sim::ActEngineConfig config = cellConfig(plan, kind);
            config.actRate = kReplayRate;
            stream = ActStream();
            stream.label = label + strprintf("@%g", kReplayRate);
            pattern = patternFor(plan, i);
            r = copiedRunActStream(config, *pattern, nullptr, &stream);
            if (!r.ok()) {
                report.fail(r.error().describe());
                continue;
            }
            const EngineLoopResult &copy = r.value();
            if (!replay_input.admit(stream))
                continue;
            kind_acts += copy.result.acts;
            kind_events += copy.victimRefreshEvents;
            const FaultReplay f =
                replayFault(stream, fault, rows, rows_per_refresh, trace);
            report.check(f.peakDisturbance ==
                                 copy.result.peakDisturbance &&
                             f.flips == copy.result.bitFlips,
                         "FaultModel replay diverged on " + stream.label);
            schemes::SchemeSpec spec = config.scheme;
            spec.rowsPerBank = rows;
            spec.timing = plan.base.timing;
            const Result<SchemeReplay> sr =
                replayScheme(stream, spec, "attack", trace);
            report.check(sr.ok() && sr.value().victimEvents ==
                                        copy.victimRefreshEvents,
                         name + " replay diverged on " + stream.label);
            if (kind != schemes::SchemeKind::Graphene)
                continue;
            const TableReplay t =
                replayTable(stream, grapheneConfigFor(spec), trace);
            report.check(t.crossings == copy.victimRefreshEvents,
                         "CounterTable replay diverged on " +
                             stream.label);
            table += t;
        }
        report.metric("schemes." + name + ".act_ns.attack",
                      trace.totals("schemes." + name + ".act.attack")
                          .nsPerCall(),
                      "ns");
        report.metric("schemes." + name + ".ref_ns",
                      trace.totals("schemes." + name + ".ref").nsPerCall(),
                      "ns");
        report.metric("schemes." + name + ".victim_events_per_mact",
                      kind_acts ? static_cast<double>(kind_events) * 1e6 /
                                      static_cast<double>(kind_acts)
                                : 0.0,
                      "1/MACT");
    }
    report.metric("guard.rejected_streams.attack",
                  static_cast<double>(full_rate.rejected()), "count");
    report.check(replay_input.rejected() == 0,
                 "the guard rejected a replay-rate attack stream");
    report.metric("workloads.pattern_ns",
                  trace.totals("workloads.pattern_isolated").nsPerCall(),
                  "ns");
    reportReplayLayers(trace, table, report);

    // 4. One cell with an obs::Sink attached, against the same cell
    // untraced.
    const sim::ActEngineConfig config =
        cellConfig(plan, schemes::SchemeKind::Graphene);
    auto plain_pattern = patternFor(plan, 0);
    const std::int64_t t0 = nowNs();
    const sim::ActEngineResult plain =
        sim::runActStream(config, *plain_pattern);
    const double plain_s = secondsSince(t0);
    obs::Sink sink;
    sim::ActEngineConfig traced = config;
    traced.obs = &sink;
    auto obs_pattern = patternFor(plan, 0);
    const std::int64_t t1 = nowNs();
    const sim::ActEngineResult with_obs =
        sim::runActStream(traced, *obs_pattern);
    const double obs_s = secondsSince(t1);
    report.check(sameResult(plain, with_obs),
                 "an obs sink changed an ACT-stream result");
    report.metric("obs.overhead_ratio.attack", obs_s / plain_s, "ratio");
    report.metric("obs.bytes_per_act.attack",
                  static_cast<double>(obsExportBytes(sink)) /
                      static_cast<double>(
                          std::max<std::uint64_t>(plain.acts, 1)),
                  "B/ACT");
}

} // namespace perfbench
