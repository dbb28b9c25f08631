/**
 * @file
 * simbench — one workload of the simulator benchmark per process.
 *
 *   simbench --workload system_mix|attack_stream|serve_fleet
 *            --seed N --seconds S --trace 0|1 --work DIR [--tiny]
 *
 * --trace 0 repeats the workload for S seconds of timed work and
 * reports the end-to-end metrics; --trace 1 runs the traced pass and
 * reports the per-layer metrics. Either way it prints the simulated-
 * stats digest, then one JSON result line last on stdout. Usage errors
 * exit 2 without a result; failed output checks still print the line,
 * with "correct": false.
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "paths.hh"

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "simbench: " << why << "\n"
              << "usage: simbench --workload "
                 "system_mix|attack_stream|serve_fleet --seed N "
                 "--seconds S --trace 0|1 --work DIR [--tiny]\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage(std::string(argv[i]) + " needs a value");
        return argv[++i];
    };
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--workload")
                o.workload = value(i);
            else if (arg == "--seed")
                o.seed = std::stoull(value(i));
            else if (arg == "--seconds")
                o.seconds = std::stod(value(i));
            else if (arg == "--trace")
                o.trace = std::stoi(value(i)) != 0;
            else if (arg == "--work")
                o.workDir = value(i);
            else if (arg == "--tiny")
                o.size = Size::Tiny;
            else
                usage("unknown flag " + arg);
        }
    } catch (const std::exception &) {
        usage("malformed number");
    }
    if (o.workload != "system_mix" && o.workload != "attack_stream" &&
        o.workload != "serve_fleet")
        usage("unknown workload '" + o.workload + "'");
    if (o.workDir.empty())
        usage("--work is required");
    return o;
}

/**
 * Print each span name's self time (heaviest first) and write the raw
 * spans next to the run's other outputs.
 */
void
reportSpans(const Options &o, const std::string &path_name,
            const SpanTrace &trace, Report &report)
{
    auto spans = trace.all();
    std::sort(spans.begin(), spans.end(), [](const auto &a, const auto &b) {
        return a.second.selfNs > b.second.selfNs;
    });
    for (const auto &[name, t] : spans)
        std::cout << graphene::strprintf(
            "span %s %s spans=%llu calls=%llu total_ms=%.3f "
            "self_ms=%.3f\n",
            path_name.c_str(), name.c_str(),
            static_cast<unsigned long long>(t.spans),
            static_cast<unsigned long long>(t.calls), t.totalNs * 1e-6,
            t.selfNs * 1e-6);
    const std::string file = o.workDir + "/spans." + path_name + ".jsonl";
    const graphene::Result<void> wrote = trace.writeJsonl(file);
    if (!wrote.ok())
        report.fail(wrote.error().describe());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    freshDir(o.workDir);
    Report report;
    Digest digest;

    if (!o.trace) {
        if (o.workload == "system_mix")
            runSystemMix(o, report, digest);
        else if (o.workload == "attack_stream")
            runAttackStream(o, report, digest);
        else
            runServeFleet(o, report, digest);
    } else {
        using TraceFn = void (*)(const Options &, bool, SpanTrace &,
                                 Report &, Digest &);
        struct Path
        {
            const char *workload; ///< Owns the digest of its traced run.
            const char *name;
            TraceFn fn;
            /** Also run at full size when tracing this workload:
             *  serve_fleet drives the attack path's engine. */
            const char *alsoFullFor;
        };
        const Path paths[] = {
            {"system_mix", "system", traceSystemPath, ""},
            {"attack_stream", "attack", traceAttackPath, "serve_fleet"},
            {"serve_fleet", "serve", traceServePath, ""},
        };
        // Probe-size paths first, full-size ones last (the traced
        // workload's own path last of all): their values win wherever
        // two paths report the same layer.
        for (int full = 0; full < 2; ++full) {
            for (const Path &p : paths) {
                const bool own = o.workload == p.workload;
                if ((own || o.workload == p.alsoFullFor) != (full == 1))
                    continue;
                SpanTrace trace;
                Digest path_digest;
                p.fn(o, full == 1, trace, report,
                     own ? digest : path_digest);
                reportSpans(o, p.name, trace, report);
            }
        }
        SpanTrace common;
        reportCommonLayers(o, common, report);
        reportSpans(o, "common", common, report);
    }

    std::cout << "digest " << o.workload << " " << digest.hex() << "\n";
    std::cout << report.json() << std::endl;
    return 0;
}
