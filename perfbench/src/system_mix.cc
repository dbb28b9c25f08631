/**
 * @file
 * Workload `system_mix`: the Figure 8(a)/(c) path. Trace-driven
 * 16 cores × 4 channels through sim::runOverheadGrid on an
 * exp::Runner with one worker: the `none` baseline stage plus every
 * evaluated scheme over profiles spanning the generator's axes (mcf:
 * low locality, libquantum: streaming, sphinx3: Zipf-skewed,
 * mix-high: a multiprogrammed mix). Its time goes to workload
 * generation, address decode, controller/bank timing and per-cell
 * FaultModel allocation; the schemes stay nearly idle.
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

struct SystemPlan
{
    sim::SystemConfig base;
    std::vector<workloads::WorkloadSpec> suite;
    std::vector<schemes::SchemeKind> kinds;
};

/** @p probe: the small off-path size a traced run of another workload
 *  uses to still report this path's layers. */
SystemPlan
systemPlan(const Options &options, bool probe)
{
    SystemPlan plan;
    plan.base.seed = options.seed;
    const unsigned cores = plan.base.numCores;
    if (options.size == Size::Tiny || probe) {
        plan.base.windows = 0.001;
        plan.suite = {workloads::homogeneous("sphinx3", cores)};
    } else {
        plan.base.windows = 0.01;
        plan.suite = {workloads::homogeneous("mcf", cores),
                      workloads::homogeneous("libquantum", cores),
                      workloads::homogeneous("sphinx3", cores),
                      workloads::mixHigh(cores, 42)};
    }
    plan.kinds = schemes::evaluatedSchemes();
    return plan;
}

exp::CellStats
toStats(const sim::SystemResult &r)
{
    exp::CellStats s;
    s.acts = r.acts;
    s.requests = r.requests;
    s.victimRowsRefreshed = r.victimRowsRefreshed;
    s.bitFlips = r.bitFlips;
    s.energyOverhead = r.refreshEnergyOverhead;
    s.rowHitRate = r.rowHitRate;
    s.windows = r.windows;
    s.coreRequests = r.coreRequests;
    return s;
}

/** A repetition's inputs and runner, built before the timed call. */
struct Prepared
{
    SystemPlan plan;
    std::string jsonl;
    std::unique_ptr<exp::Runner> runner;
};

Prepared
prepare(const Options &options, bool probe, const std::string &jsonl)
{
    Prepared p;
    p.plan = systemPlan(options, probe);
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
    const std::vector<sim::OverheadRow> rows = sim::runOverheadGrid(
        p.plan.base, p.plan.suite, p.plan.kinds, *p.runner, "system_mix");
    const double wall_s = secondsSince(t0);
    p.runner.reset(); // closes the artifact
    report.check(rows.size() == p.plan.suite.size() * p.plan.kinds.size(),
                 "system_mix grid lost cells");
    return readGridPass(p.jsonl, wall_s,
                        p.plan.suite.size() * (p.plan.kinds.size() + 1),
                        report);
}

/** Suffix naming @p kind's cells in span and metric names ("" for
 *  the unprotected baseline). */
std::string
kindSuffix(schemes::SchemeKind kind)
{
    std::string suffix;
    if (kind != schemes::SchemeKind::None) {
        suffix += '.';
        suffix += schemes::schemeKindName(kind);
    }
    return suffix;
}

/** The config runOverheadGrid hands the cell (workload, @p kind). */
sim::SystemConfig
cellConfig(const SystemPlan &plan, const workloads::WorkloadSpec &w,
           schemes::SchemeKind kind)
{
    sim::SystemConfig config = plan.base;
    config.scheme.kind = kind;
    config.seed = systemTrafficSeed(plan.base, w);
    return config;
}

/**
 * Graphene's peak disturbance per workload, via the copied loop (the
 * grid does not report it), checking on the way that the copy
 * reproduces the grid's Graphene cells. The perf-loss field is the
 * grid's: it compares against the baseline cell, which is not rerun.
 */
std::vector<double>
graphenePeaks(const SystemPlan &plan, const CellMap &grid,
              Report &report)
{
    std::vector<double> peaks;
    const auto kind = schemes::SchemeKind::Graphene;
    const std::string name = schemes::schemeKindName(kind);
    for (const auto &w : plan.suite) {
        Result<SystemLoopResult> r = copiedRunSystem(
            cellConfig(plan, w, kind), w, nullptr, "");
        if (!r.ok()) {
            report.fail(r.error().describe());
            peaks.push_back(0.0);
            continue;
        }
        exp::CellStats stats = toStats(r.value().result);
        const auto it = grid.find(cellKey(w.name, name));
        if (it != grid.end())
            stats.perfLoss = it->second.perfLoss;
        report.check(it != grid.end() && stats == it->second,
                     "copied system loop diverged from the grid on " +
                         w.name + "/" + name);
        peaks.push_back(r.value().peakDisturbance);
    }
    return peaks;
}

void
addPeaks(const SystemPlan &plan, const std::vector<double> &peaks,
         Digest &digest)
{
    for (std::size_t i = 0; i < plan.suite.size(); ++i)
        digest.add("peak " + plan.suite[i].name + " Graphene " +
                   exact(peaks[i]));
}

} // namespace

void
runSystemMix(const Options &options, Report &report, Digest &digest)
{
    std::vector<double> setup_s, wall_s, rate, out_mb;
    double timed = 0.0;
    SystemPlan plan;
    GridPass first;
    for (unsigned rep = 0; rep == 0 || timed < options.seconds; ++rep) {
        const std::string jsonl =
            options.workDir + strprintf("/system_mix.%u.jsonl", rep);
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
                         "system_mix repetitions disagree");
    }

    const std::vector<double> peaks =
        graphenePeaks(plan, first.cells, report);
    addCells(first.cells, digest);
    addPeaks(plan, peaks, digest);
    const double peak = *std::max_element(peaks.begin(), peaks.end());
    const double threshold =
        static_cast<double>(plan.base.scheme.rowHammerThreshold);
    report.check(peak / threshold < 1.0,
                 "system_mix: Graphene peak disturbance reached T");

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
traceSystemPath(const Options &options, bool primary, SpanTrace &trace,
                Report &report, Digest &digest)
{
    const SystemPlan plan = systemPlan(options, !primary);
    const dram::Geometry &geometry = plan.base.geometry;

    // 1. The untraced reference: the grid itself.
    const GridPass ref = runGrid(
        prepare(options, !primary,
                options.workDir + "/trace_system.jsonl"),
        report);
    report.metric("exp.runner_overhead_s",
                  ref.wallS - ref.artifact.cellWallS, "s");

    // 2. The copied loop with spans, cell for cell.
    std::vector<schemes::SchemeKind> all = {schemes::SchemeKind::None};
    all.insert(all.end(), plan.kinds.begin(), plan.kinds.end());
    CellMap mine;
    std::vector<double> peaks;
    std::uint64_t requests = 0, acts = 0;
    double hit_rate = 0.0, loop_wall = 0.0;
    std::size_t cells = 0;
    for (const auto &w : plan.suite) {
        std::vector<std::uint64_t> baseline_requests;
        for (const auto kind : all) {
            const std::string name = schemes::schemeKindName(kind);
            const std::int64_t t0 = nowNs();
            Result<SystemLoopResult> r = copiedRunSystem(
                cellConfig(plan, w, kind), w, &trace,
                "mem.access" + kindSuffix(kind));
            loop_wall += secondsSince(t0);
            if (!r.ok()) {
                report.attempt(false);
                report.fail(r.error().describe());
                continue;
            }
            const sim::SystemResult &res = r.value().result;
            exp::CellStats stats = toStats(res);
            if (kind == schemes::SchemeKind::None) {
                baseline_requests = res.coreRequests;
            } else if (!baseline_requests.empty()) {
                sim::SystemResult baseline;
                baseline.coreRequests = baseline_requests;
                stats.perfLoss = res.speedupLossVs(baseline);
            }
            mine[cellKey(w.name, name)] = stats;
            report.attempt(kind == schemes::SchemeKind::None ||
                           res.bitFlips == 0);
            requests += res.requests;
            acts += res.acts;
            hit_rate += res.rowHitRate;
            ++cells;
            if (kind == schemes::SchemeKind::Graphene)
                peaks.push_back(r.value().peakDisturbance);
        }
    }
    report.check(mine == ref.cells,
                 "copied system loop does not reproduce the grid");
    if (peaks.size() == plan.suite.size()) {
        addCells(mine, digest);
        addPeaks(plan, peaks, digest);
    }

    std::vector<std::string> layers = {"workloads.gen", "dram.decode"};
    for (const auto kind : all) {
        const std::string suffix = kindSuffix(kind);
        layers.push_back("mem.access" + suffix);
        report.metric("mem.access_ns" + suffix,
                      trace.totals("mem.access" + suffix).nsPerCall(),
                      "ns");
    }
    report.metric("workloads.gen_ns",
                  trace.totals("workloads.gen").nsPerCall(), "ns");
    report.metric("dram.decode_ns",
                  trace.totals("dram.decode").nsPerCall(), "ns");
    report.metric("mem.requests", static_cast<double>(requests), "count");
    report.metric("mem.acts", static_cast<double>(acts), "count");
    report.metric("mem.row_hit_rate",
                  cells ? hit_rate / static_cast<double>(cells) : 0.0,
                  "ratio");
    report.metric("trace.overhead_ratio", loop_wall / ref.wallS, "ratio");
    report.metric("trace.unattributed_share",
                  unattributedShare(trace, "sim.system_loop", layers),
                  "ratio");

    // 3. Capture every cell's per-bank stream through an obs sink and
    // replay it into single layers.
    const StreamLimits limits =
        limitsFor(plan.base.timing, plan.base.scheme.grapheneK);
    dram::FaultConfig fault;
    fault.rowHammerThreshold =
        static_cast<double>(plan.base.scheme.rowHammerThreshold);
    fault.mu = {1.0};
    const std::uint64_t rows_per_refresh =
        dram::Rank(plan.base.timing, 1, geometry.rowsPerBank, fault)
            .rowsPerRefresh();
    TableReplay table;
    StreamGuard guard(limits);
    for (const auto &w : plan.suite) {
        for (const auto kind : all) {
            const std::string name = schemes::schemeKindName(kind);
            sim::SystemConfig config = cellConfig(plan, w, kind);
            obs::Sink sink(std::size_t{1} << 28);
            config.obs = &sink;
            Result<SystemLoopResult> r =
                copiedRunSystem(config, w, nullptr, "");
            if (!r.ok()) {
                report.fail(r.error().describe());
                continue;
            }
            report.check(sink.tracer.totalDropped() == 0,
                         "stream capture dropped events");
            const SystemLoopResult &in_system = r.value();
            for (const ActStream &s :
                 streamsFromSink(sink, geometry, w.name + "/" + name)) {
                if (!guard.admit(s))
                    continue;
                const unsigned channel = s.bank / geometry.banksPerRank;
                const unsigned bank = s.bank % geometry.banksPerRank;
                if (kind == schemes::SchemeKind::None) {
                    const FaultReplay f = replayFault(
                        s, fault, geometry.rowsPerBank, rows_per_refresh,
                        trace);
                    report.check(
                        f.peakDisturbance == in_system.bankPeak[s.bank] &&
                            f.flips == in_system.bankFlips[s.bank],
                        "FaultModel replay diverged on " + s.label);
                    continue;
                }
                schemes::SchemeSpec spec = config.scheme;
                spec.rowsPerBank = geometry.rowsPerBank;
                spec.timing = config.timing;
                spec.seed = (config.seed + 17 * channel) * 1000003ULL + bank;
                const Result<SchemeReplay> sr =
                    replayScheme(s, spec, "system", trace);
                report.check(sr.ok() && sr.value().victimEvents ==
                                            in_system.bankVictimEvents[s.bank],
                             name + " replay diverged on " + s.label);
                if (kind != schemes::SchemeKind::Graphene)
                    continue;
                const TableReplay t =
                    replayTable(s, grapheneConfigFor(spec), trace);
                report.check(t.crossings ==
                                 in_system.bankVictimEvents[s.bank],
                             "CounterTable replay diverged on " + s.label);
                table += t;
            }
        }
    }
    for (const auto kind : plan.kinds) {
        const std::string name = schemes::schemeKindName(kind);
        report.metric("schemes." + name + ".act_ns.system",
                      trace.totals("schemes." + name + ".act.system")
                          .nsPerCall(),
                      "ns");
    }
    report.metric("guard.rejected_streams.system",
                  static_cast<double>(guard.rejected()), "count");
    reportReplayLayers(trace, table, report);

    // 4. One cell with an obs::Sink attached, against the same cell
    // untraced: the baseline for a cheap-enough-to-leave-on tracer.
    const workloads::WorkloadSpec &w = plan.suite.back();
    const sim::SystemConfig config =
        cellConfig(plan, w, schemes::SchemeKind::Graphene);
    const std::int64_t t0 = nowNs();
    const sim::SystemResult plain = sim::runSystem(config, w);
    const double plain_s = secondsSince(t0);
    obs::Sink sink;
    sim::SystemConfig traced = config;
    traced.obs = &sink;
    const std::int64_t t1 = nowNs();
    const sim::SystemResult with_obs = sim::runSystem(traced, w);
    const double obs_s = secondsSince(t1);
    report.check(toStats(plain) == toStats(with_obs),
                 "an obs sink changed a system result");
    report.metric("obs.overhead_ratio.system", obs_s / plain_s, "ratio");
    report.metric("obs.bytes_per_act.system",
                  static_cast<double>(obsExportBytes(sink)) /
                      static_cast<double>(std::max<std::uint64_t>(
                          plain.acts, 1)),
                  "B/ACT");
}

} // namespace perfbench
