#include "obs/export.hh"

#include <algorithm>

namespace graphene {
namespace obs {

// The status structs are plain data in both build modes; only the
// writers compile out.

void
ServiceStatus::finalize()
{
    std::sort(sessions.begin(), sessions.end(),
              [](const SessionStatus &a, const SessionStatus &b) {
                  return a.id < b.id;
              });
    running = done = failed = pending = 0;
    for (const auto &s : sessions) {
        if (s.state == "running")
            ++running;
        else if (s.state == "done")
            ++done;
        else if (s.state == "failed")
            ++failed;
        else
            ++pending;
    }
}

} // namespace obs
} // namespace graphene

#ifndef GRAPHENE_OBS_OFF

#include <sstream>

#include "ckpt/checkpoint.hh"
#include "common/json.hh"

namespace graphene {
namespace obs {

namespace {

Result<void>
atomicWriteString(const std::string &path, const std::string &text)
{
    std::vector<std::uint8_t> bytes(text.begin(), text.end());
    return ckpt::atomicWriteFile(path, bytes);
}

void
appendSessionObject(std::ostream &os, const SessionStatus &s)
{
    os << "{\"id\":" << json::quote(s.id)
       << ",\"scheme\":" << json::quote(s.scheme)
       << ",\"source\":" << json::quote(s.source)
       << ",\"state\":" << json::quote(s.state);
    if (!s.failure.empty())
        os << ",\"failure\":" << json::quote(s.failure);
    os << ",\"last_window\":" << s.lastWindow
       << ",\"jsonl_lines\":" << s.jsonlLines
       << ",\"buffered_rows\":" << s.bufferedRows
       << ",\"chunk_rows\":" << s.chunkRows
       << ",\"alerts_fired\":" << s.alertsFired << "}";
}

/** Exposition family and TYPE of metric @p name: counters end in
 *  `_total`; Max and Ratio values (obs::MetricKind) are gauges. */
std::pair<std::string, const char *>
promFamily(const char *prefix, const std::string &name)
{
    if (metricKind(name) == MetricKind::Counter)
        return {prefix + promName(name) + "_total", "counter"};
    return {prefix + promName(name), "gauge"};
}

} // namespace

std::string
renderStatusJson(const ServiceStatus &status)
{
    // Valid nested JSON, but each session object sits alone on its
    // line: `grep '"id":"t03"' status.json` (and the flat json::
    // extractors in serve_dash) work per session without a real JSON
    // parser. No wall-clock field may ever be added here — volatile
    // data belongs in the status.meta.json sidecar.
    std::ostringstream os;
    os << "{\"format\":\"graphene-serve-status-v1\""
       << ",\"schema\":" << kStatusSchema
       << ",\"quantum_cycles\":" << status.quantumCycles
       << ",\"sessions_total\":" << status.sessions.size()
       << ",\"running\":" << status.running
       << ",\"done\":" << status.done
       << ",\"failed\":" << status.failed
       << ",\"pending\":" << status.pending << ",\"sessions\":[\n";
    for (std::size_t i = 0; i < status.sessions.size(); ++i) {
        appendSessionObject(os, status.sessions[i]);
        if (i + 1 < status.sessions.size())
            os << ",";
        os << "\n";
    }
    os << "]}\n";
    return os.str();
}

Result<void>
writeStatusJson(const std::string &path, const ServiceStatus &status)
{
    return atomicWriteString(path, renderStatusJson(status));
}

Result<void>
writeStatusSidecar(const std::string &path, std::uint64_t unix_ms,
                   std::uint64_t jobs, std::uint64_t refreshes)
{
    std::ostringstream os;
    os << "{\"volatile\":true,\"unix_ms\":" << unix_ms
       << ",\"jobs\":" << jobs << ",\"refreshes\":" << refreshes
       << "}\n";
    return atomicWriteString(path, os.str());
}

std::string
promName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    if (!out.empty() && out[0] >= '0' && out[0] <= '9')
        out.insert(out.begin(), '_');
    return out;
}

void
writeExposition(std::ostream &os, const Rollup &rollup,
                const ServiceStatus &status)
{
    // Per-tenant series from each session's totals. Families are
    // grouped so every series of a metric shares one HELP/TYPE pair,
    // as the text format requires.
    std::map<std::string,
             std::pair<const char *,
                       std::vector<std::pair<std::string, double>>>>
        families;
    for (const auto &kv : rollup.tenants())
        for (const auto &m : kv.second.totals) {
            const auto [name, type] = promFamily("graphene_serve_", m.first);
            families[name].first = type;
            families[name].second.emplace_back(kv.first, m.second);
        }
    for (const auto &[name, family] : families) {
        os << "# HELP " << name
           << " End-of-run value of the session metric.\n";
        os << "# TYPE " << name << " " << family.first << "\n";
        for (const auto &sample : family.second)
            os << name << "{tenant=\"" << json::escape(sample.first)
               << "\"} " << json::number(sample.second) << "\n";
    }

    // Fleet-wide values, label-free, combined by metric kind.
    for (const auto &[metric, value] : rollup.fleetTotals()) {
        const auto [name, type] = promFamily("graphene_fleet_", metric);
        os << "# HELP " << name
           << " Fleet value: tenants summed, or the largest tenant "
              "value for a peak, or the ratio recomputed.\n";
        os << "# TYPE " << name << " " << type << "\n";
        os << name << " " << json::number(value) << "\n";
    }

    // Session-state gauges from the health snapshot.
    os << "# HELP graphene_serve_sessions Session count by state.\n";
    os << "# TYPE graphene_serve_sessions gauge\n";
    os << "graphene_serve_sessions{state=\"running\"} "
       << status.running << "\n";
    os << "graphene_serve_sessions{state=\"done\"} " << status.done
       << "\n";
    os << "graphene_serve_sessions{state=\"failed\"} " << status.failed
       << "\n";
    os << "graphene_serve_sessions{state=\"pending\"} "
       << status.pending << "\n";
}

} // namespace obs
} // namespace graphene

#endif // GRAPHENE_OBS_OFF
