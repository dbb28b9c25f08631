/**
 * @file
 * Workload `serve_fleet`: serve::ServeDriver with one worker, the
 * graphene_serve CLI's tenant mix (8 pattern tenants interleaving the
 * evaluated schemes with the uniform/s1/s3/s4/worst families) plus one
 * trace-file tenant whose trace the set-up writes from the seed.
 * Telemetry is on and sessions checkpoint every few quanta. It runs
 * the attack path's ActStreamEngine plus the write side: session
 * quanta, chunked ingest, window JSONL, checkpoint encode and
 * atomicWriteFile, telemetry. An engine speed-up bought with bigger
 * state shows here as slower or larger checkpoints.
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>

#include "ckpt/checkpoint.hh"
#include "common/cancel.hh"
#include "common/random.hh"
#include "loops.hh"
#include "paths.hh"
#include "serve/driver.hh"
#include "workloads/trace_io.hh"

namespace perfbench {

namespace serve = graphene::serve;
namespace json = graphene::json;
using graphene::Result;
using graphene::strprintf;

namespace {

constexpr unsigned kPatternTenants = 8;
/** Set-ups timed per repetition. */
constexpr unsigned kSetupSamples = 3;
constexpr std::uint64_t kThreshold = 50000;

struct ServePlan
{
    std::vector<serve::SessionSpec> tenants; ///< Pattern tenants.
    serve::SessionSpec traceTenant;          ///< Source path set later.
    std::size_t traceRows = 0;
    std::uint64_t seed = 0;
};

/** The graphene_serve CLI's tenant @p index. */
serve::SessionSpec
tenantSpec(std::uint64_t seed, double duration, unsigned index)
{
    serve::SessionSpec spec;
    spec.id = strprintf("t%02u", index);
    const std::vector<schemes::SchemeKind> kinds =
        schemes::evaluatedSchemes();
    spec.scheme.kind = kinds[index % kinds.size()];
    spec.scheme.rowHammerThreshold = kThreshold;
    spec.scheme.seed = seed + index;
    static const char *kFamilies[] = {"uniform", "s1", "s3", "s4",
                                      "worst"};
    spec.source.kind = serve::SourceSpec::Kind::Pattern;
    spec.source.family = kFamilies[index % 5];
    spec.source.param = 10;
    spec.source.seed = seed + index;
    spec.windows = duration;
    return spec;
}

ServePlan
servePlan(const Options &options, bool probe)
{
    const bool small = options.size == Size::Tiny || probe;
    const double duration = small ? 0.02 : 0.5;
    ServePlan plan;
    plan.seed = options.seed;
    for (unsigned i = 0; i < kPatternTenants; ++i)
        plan.tenants.push_back(tenantSpec(options.seed, duration, i));
    plan.traceTenant =
        tenantSpec(options.seed, duration, kPatternTenants);
    plan.traceTenant.id = "trace00";
    plan.traceTenant.source.kind = serve::SourceSpec::Kind::TraceFile;
    plan.traceRows = small ? 4096 : 65536;
    return plan;
}

/**
 * The trace tenant's input: half the ACTs on 16 seeded hot rows, half
 * uniform over the bank, so every chunk mixes hammering and noise.
 */
void
writeTrace(const ServePlan &plan, const std::string &path,
           Report &report)
{
    graphene::Rng rng(plan.seed * 0x9e3779b97f4a7c15ULL + 11);
    const std::uint64_t rows = plan.traceTenant.rowsPerBank;
    std::vector<Row> hot(16);
    for (Row &r : hot)
        r = Row{static_cast<Row::rep>(rng.nextRange(rows))};
    std::vector<Row> trace(plan.traceRows);
    for (Row &r : trace)
        r = rng.bernoulli(0.5)
                ? hot[rng.nextRange(hot.size())]
                : Row{static_cast<Row::rep>(rng.nextRange(rows))};
    std::ofstream out(path, std::ios::trunc);
    workloads::writeActTrace(out, trace);
    out.flush();
    report.check(static_cast<bool>(out), "cannot write trace " + path);
}

/** One summary line's fields, and the window deltas summed. */
struct SessionTally
{
    std::map<std::string, std::uint64_t> windowSums;
    std::map<std::string, std::uint64_t> summary;
    double peak = 0.0;
    double energy = 0.0;
    bool haveSummary = false;
    bool error = false;
};

const char *const kCounters[] = {"acts", "nrr_events", "refresh_commands",
                                 "victim_rows_refreshed", "bit_flips"};

SessionTally
tallySession(const std::string &path, Digest *digest)
{
    SessionTally t;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (digest)
            digest->add(line);
        if (json::raw(line, "error")) {
            t.error = true;
        } else if (json::raw(line, "summary")) {
            t.haveSummary = true;
            for (const char *key : kCounters)
                t.summary[key] = json::getU64(line, key).value_or(0);
            t.peak = json::getDouble(line, "peak_disturbance").value_or(0);
            t.energy = json::getDouble(line, "energy_overhead").value_or(0);
        } else if (json::raw(line, "window")) {
            for (const char *key : kCounters)
                t.windowSums[key] += json::getU64(line, key).value_or(0);
        }
    }
    return t;
}

/** A fleet ready to run: inputs written, tenants admitted. */
struct Fleet
{
    std::string outDir;
    std::vector<serve::SessionSpec> specs;
    std::unique_ptr<serve::ServeDriver> driver;
    std::size_t admitted = 0;
};

/** Set-up in @p dir: the trace tenant's file, the driver, admission. */
Fleet
prepareFleet(const ServePlan &plan, const std::string &dir,
             SpanTrace *trace, Report &report)
{
    Fleet fleet;
    freshDir(dir);
    fleet.outDir = dir + "/out";
    serve::SessionSpec trace_tenant = plan.traceTenant;
    trace_tenant.source.path = dir + "/input.act";
    maybeSpan(trace, trace ? trace->id("serve.setup") : 0,
              [&] { writeTrace(plan, trace_tenant.source.path, report); });

    serve::DriverOptions opts;
    opts.jobs = 1;
    opts.ckptEveryQuanta = 4;
    opts.outDir = fleet.outDir;
    opts.telemetry = true;
    fleet.driver = std::make_unique<serve::ServeDriver>(opts);
    fleet.specs = plan.tenants;
    fleet.specs.push_back(trace_tenant);
    for (const serve::SessionSpec &spec : fleet.specs) {
        const Result<void> r =
            maybeSpan(trace, trace ? trace->id("serve.admit") : 0,
                      [&] { return fleet.driver->admit(spec); });
        if (r.ok()) {
            ++fleet.admitted;
        } else {
            report.attempt(false);
            report.fail("admit " + spec.id + ": " + r.error().describe());
        }
    }
    return fleet;
}

/** What one fleet run produced. */
struct FleetRun
{
    double runS = 0.0;
    std::uint64_t acts = 0;
    std::uint64_t outBytes = 0;
    double graphenePeak = 0.0;
    double grapheneEnergy = 0.0;
    double fleetPeak = 0.0;
};

/** Run @p fleet and check its outputs; each session is one operation. */
FleetRun
runFleet(Fleet &fleet, SpanTrace *trace, Report &report, Digest *digest)
{
    FleetRun out;
    graphene::CancelToken cancel;
    const std::int64_t t0 = nowNs();
    const Result<serve::ServeDriver::RunReport> run =
        maybeSpan(trace, trace ? trace->id("serve.run") : 0,
                  [&] { return fleet.driver->run(cancel); });
    out.runS = secondsSince(t0);
    if (!run.ok()) {
        report.fail("serve run: " + run.error().describe());
        return out;
    }
    report.check(run.value().completed == fleet.admitted &&
                     run.value().failed == 0,
                 strprintf("serve: %zu of %zu sessions completed",
                           run.value().completed, fleet.admitted));

    for (const serve::SessionSpec &spec : fleet.specs) {
        const SessionTally t = tallySession(
            fleet.outDir + "/session_" + spec.id + ".jsonl", digest);
        bool ok = t.haveSummary && !t.error;
        for (const char *key : kCounters)
            ok = ok && t.windowSums.count(key) &&
                 t.windowSums.at(key) == t.summary.at(key);
        report.check(ok, "session " + spec.id +
                             ": window deltas do not sum to its summary");
        const bool flipped = t.haveSummary && t.summary.at("bit_flips");
        report.check(!flipped, "session " + spec.id + " flipped bits");
        report.attempt(ok && !flipped);
        if (!t.haveSummary)
            continue;
        out.acts += t.summary.at("acts");
        // The fleet peak is the largest session peak, never a sum.
        out.fleetPeak = std::max(out.fleetPeak, t.peak);
        if (spec.scheme.kind == schemes::SchemeKind::Graphene) {
            out.graphenePeak = std::max(out.graphenePeak, t.peak);
            out.grapheneEnergy = std::max(out.grapheneEnergy, t.energy);
        }
    }
    out.outBytes = treeBytes(fleet.outDir);
    return out;
}

} // namespace

void
runServeFleet(const Options &options, Report &report, Digest &digest)
{
    std::vector<double> setup_s, wall_s, rate, out_mb;
    double timed = 0.0;
    FleetRun first;
    Digest first_digest;
    for (unsigned rep = 0; rep == 0 || timed < options.seconds; ++rep) {
        const std::string dir = options.workDir + strprintf("/serve.%u", rep);
        Fleet fleet;
        for (unsigned s = 0; s < kSetupSamples; ++s) {
            const std::int64_t s0 = nowNs();
            fleet = prepareFleet(servePlan(options, false), dir, nullptr,
                                 report);
            setup_s.push_back(secondsSince(s0));
        }
        Digest rep_digest;
        const FleetRun run = runFleet(fleet, nullptr, report, &rep_digest);
        timed += run.runS;
        std::cerr << "rep " << rep << " wall_s " << run.runS << "\n";
        wall_s.push_back(run.runS);
        rate.push_back(static_cast<double>(run.acts) / run.runS);
        out_mb.push_back(static_cast<double>(run.outBytes) / 1e6);
        if (rep == 0) {
            first = run;
            first_digest = rep_digest;
        } else {
            report.check(rep_digest.value() == first_digest.value(),
                         "serve_fleet repetitions disagree");
        }
        fleet = Fleet();
        freshDir(dir);
    }
    digest = first_digest;
    digest.add("fleet_peak " + exact(first.fleetPeak));

    const double threshold = static_cast<double>(kThreshold);
    report.check(first.fleetPeak / threshold < 1.0,
                 "serve_fleet: a session's peak disturbance reached T");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("wall_s", median(wall_s), "s");
    report.metric("acts_per_s", median(rate), "ACT/s");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    report.metric("out_mb", median(out_mb), "MB");
    report.metric("ok_ratio", report.okRatio(), "ratio");
    report.metric("graphene_peak_ratio", first.graphenePeak / threshold,
                  "ratio");
    report.metric("graphene_refresh_energy", 1.0 + first.grapheneEnergy,
                  "ratio");
}

void
traceServePath(const Options &options, bool primary, SpanTrace &trace,
               Report &report, Digest &digest)
{
    const ServePlan plan = servePlan(options, !primary);
    const std::string dir = options.workDir + "/trace_serve";

    // 1. Untraced reference, then the same fleet with spans.
    Digest ref_digest, traced_digest;
    const std::int64_t t0 = nowNs();
    Fleet ref_fleet = prepareFleet(plan, dir, nullptr, report);
    runFleet(ref_fleet, nullptr, report, &ref_digest);
    const double ref_s = secondsSince(t0);
    ref_fleet = Fleet();
    const std::int64_t t1 = nowNs();
    Fleet fleet = prepareFleet(plan, dir, &trace, report);
    const FleetRun traced = runFleet(fleet, &trace, report, &traced_digest);
    const double traced_s = secondsSince(t1);
    fleet = Fleet();
    report.check(ref_digest.value() == traced_digest.value(),
                 "traced serve fleet diverged from the untraced one");
    digest = traced_digest;
    digest.add("fleet_peak " + exact(traced.fleetPeak));

    const SpanTrace::Totals setup = trace.totals("serve.setup");
    const SpanTrace::Totals admit = trace.totals("serve.admit");
    const SpanTrace::Totals run = trace.totals("serve.run");
    report.metric("serve.admit_ms", admit.totalNs * 1e-6, "ms");
    report.metric("serve.run_s", run.totalNs * 1e-9, "s");
    report.metric("trace.overhead_ratio", traced_s / ref_s, "ratio");
    report.metric("trace.unattributed_share",
                  1.0 - (setup.totalNs + admit.totalNs + run.totalNs) *
                            1e-9 / traced_s,
                  "ratio");

    // 2. Chunked ingest of the trace tenant's file, row by row.
    const std::string input = dir + "/input.act";
    const unsigned ingest_id = trace.id("workloads.ingest");
    const std::size_t chunk = plan.traceTenant.chunkRows;
    std::vector<Row> buf;
    for (unsigned pass = 0; pass < 16; ++pass) {
        std::ifstream in(input);
        workloads::ActTraceCursor cursor(in);
        trace.open(ingest_id);
        std::uint64_t rows = 0;
        for (;;) {
            buf.clear();
            const Result<std::size_t> got = cursor.read(buf, chunk);
            if (!got.ok()) {
                report.fail("ingest: " + got.error().describe());
                break;
            }
            if (got.value() == 0)
                break;
            rows += got.value();
        }
        trace.close(rows);
        report.check(rows == plan.traceRows, "ingest lost rows");
    }
    report.metric("workloads.ingest_ns",
                  trace.totals("workloads.ingest").nsPerCall(), "ns");

    // 3. Checkpoint encode, restore and durable write of each tenant's
    // engine at mid-span.
    std::vector<serve::SessionSpec> specs = plan.tenants;
    specs.push_back(plan.traceTenant);
    specs.back().source.path = input;
    const unsigned save_id = trace.id("ckpt.save");
    const unsigned restore_id = trace.id("ckpt.restore");
    const unsigned write_id = trace.id("ckpt.write");
    double bytes = 0.0;
    for (const serve::SessionSpec &spec : specs) {
        auto engine_for = [&](std::unique_ptr<serve::ActSource> &source,
                              std::unique_ptr<serve::StreamPattern> &pat) {
            auto made = serve::makeSource(spec.source, spec.rowsPerBank);
            if (!made.ok()) {
                report.fail("source " + spec.id + ": " +
                            made.error().describe());
                return std::unique_ptr<sim::ActStreamEngine>();
            }
            source = std::move(made).value();
            pat = std::make_unique<serve::StreamPattern>(*source,
                                                         spec.chunkRows);
            return std::make_unique<sim::ActStreamEngine>(
                spec.engineConfig(), *pat);
        };
        std::unique_ptr<serve::ActSource> src, src2;
        std::unique_ptr<serve::StreamPattern> pat, pat2;
        auto engine = engine_for(src, pat);
        auto restored = engine_for(src2, pat2);
        if (!engine || !restored)
            continue;
        engine->runUntil(graphene::Cycle{engine->horizon().value() / 2});
        const std::vector<std::uint8_t> ckpt =
            trace.span(save_id, [&] { return engine->saveCheckpoint(); });
        const Result<void> back = trace.span(
            restore_id, [&] { return restored->restoreCheckpoint(ckpt); });
        report.check(back.ok(), "checkpoint of " + spec.id +
                                    " did not restore");
        const Result<void> wrote = trace.span(write_id, [&] {
            return graphene::ckpt::atomicWriteFile(dir + "/probe.gckp",
                                                   ckpt);
        });
        report.check(wrote.ok(), "atomicWriteFile failed");
        bytes += static_cast<double>(ckpt.size());
    }
    report.metric("ckpt.save_ms",
                  trace.totals("ckpt.save").nsPerCall() * 1e-6, "ms");
    report.metric("ckpt.restore_ms",
                  trace.totals("ckpt.restore").nsPerCall() * 1e-6, "ms");
    report.metric("ckpt.write_ms",
                  trace.totals("ckpt.write").nsPerCall() * 1e-6, "ms");
    report.metric("ckpt.bytes",
                  bytes / static_cast<double>(std::max<std::size_t>(
                              specs.size(), 1)),
                  "B");
    freshDir(dir);
}

} // namespace perfbench
