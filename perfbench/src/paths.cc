#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <streambuf>

#include "paths.hh"

namespace perfbench {

namespace exp = graphene::exp;
namespace json = graphene::json;

namespace {

/** Parse `<path>` and `<path>.meta`; a malformed line fails @p report. */
GridArtifact
readGridArtifact(const std::string &path, Report &report)
{
    GridArtifact out;
    std::ifstream in(path);
    if (!in)
        report.fail("grid artifact " + path + " missing");
    std::string line;
    while (std::getline(in, line)) {
        exp::CellKey key;
        exp::CellResult result;
        if (!exp::parseCellRecordLine(line, key, result)) {
            report.fail("malformed grid record: " + line);
            continue;
        }
        out.keys.push_back(key);
        out.results.push_back(result);
    }

    std::ifstream meta(path + ".meta");
    while (std::getline(meta, line)) {
        if (json::raw(line, "stage"))
            continue;
        if (const auto ms = json::getDouble(line, "wall_ms"))
            out.cellWallS += *ms * 1e-3;
    }

    std::error_code ec;
    out.bytes = std::filesystem::file_size(path, ec);
    out.bytes += std::filesystem::file_size(path + ".meta", ec);
    return out;
}

/** Canonical text of one cell's simulated statistics. */
std::string
cellStatsLine(const std::string &workload, const std::string &scheme,
              const exp::CellStats &s)
{
    std::string line = graphene::strprintf(
        "cell %s %s acts=%llu requests=%llu victims=%llu flips=%llu "
        "energy=%s perf=%s hit=%s windows=%s cores=",
        workload.c_str(), scheme.c_str(),
        static_cast<unsigned long long>(s.acts),
        static_cast<unsigned long long>(s.requests),
        static_cast<unsigned long long>(s.victimRowsRefreshed),
        static_cast<unsigned long long>(s.bitFlips),
        exact(s.energyOverhead).c_str(), exact(s.perfLoss).c_str(),
        exact(s.rowHitRate).c_str(), exact(s.windows).c_str());
    for (std::uint64_t r : s.coreRequests)
        line += std::to_string(r) + ",";
    return line;
}

} // namespace

std::string
cellKey(const std::string &workload, const std::string &scheme)
{
    return workload + "|" + scheme;
}

void
addCells(const CellMap &cells, Digest &digest)
{
    for (const auto &kv : cells) {
        const std::size_t bar = kv.first.find('|');
        digest.add(cellStatsLine(kv.first.substr(0, bar),
                                 kv.first.substr(bar + 1), kv.second));
    }
}

double
grapheneEnergy(const CellMap &cells)
{
    double worst = 0.0;
    for (const auto &kv : cells)
        if (kv.first.ends_with("|Graphene"))
            worst = std::max(worst, kv.second.energyOverhead);
    return worst;
}

GridPass
readGridPass(const std::string &jsonl, double wall_s,
             std::size_t expected, Report &report)
{
    GridPass pass;
    pass.wallS = wall_s;
    pass.artifact = readGridArtifact(jsonl, report);
    const GridArtifact &a = pass.artifact;
    report.check(a.keys.size() == expected,
                 "grid artifact " + jsonl +
                     " has the wrong number of cells");
    for (std::size_t i = 0; i < a.keys.size(); ++i) {
        const exp::CellResult &r = a.results[i];
        const bool protected_cell = a.keys[i].scheme != "none";
        const bool ok =
            !r.skipped() && (!protected_cell || r.stats.bitFlips == 0);
        report.attempt(ok);
        if (!ok)
            report.fail(graphene::strprintf(
                "cell %s/%s: %s", a.keys[i].workload.c_str(),
                a.keys[i].scheme.c_str(),
                r.skipped() ? r.error.c_str() : "bit flips"));
        pass.acts += r.stats.acts;
        pass.cells[cellKey(a.keys[i].workload, a.keys[i].scheme)] =
            r.stats;
    }
    std::error_code ec;
    std::filesystem::remove(jsonl, ec);
    std::filesystem::remove(jsonl + ".meta", ec);
    return pass;
}

void
reportReplayLayers(const SpanTrace &trace, const TableReplay &table,
                   Report &report)
{
    report.metric("dram.fault_act_ns",
                  trace.totals("dram.fault_act").nsPerCall(), "ns");
    report.metric("dram.fault_refresh_ns",
                  trace.totals("dram.fault_refresh").nsPerCall(), "ns");
    report.metric("core.table_update_ns",
                  trace.totals("core.table_update").nsPerCall(), "ns");
    const double n =
        static_cast<double>(std::max<std::uint64_t>(table.updates, 1));
    report.metric("core.table_hit_share",
                  static_cast<double>(table.hits) / n, "ratio");
    report.metric("core.table_spill_share",
                  static_cast<double>(table.spills) / n, "ratio");
    report.metric("core.table_replace_share",
                  static_cast<double>(table.inserts) / n, "ratio");
}

namespace {

/** A stream buffer that counts what is written and keeps nothing. */
class CountingBuf : public std::streambuf
{
  public:
    std::uint64_t bytes = 0;

  protected:
    int_type overflow(int_type c) override
    {
        if (!traits_type::eq_int_type(c, traits_type::eof()))
            ++bytes;
        return traits_type::not_eof(c);
    }

    std::streamsize xsputn(const char *, std::streamsize n) override
    {
        bytes += static_cast<std::uint64_t>(n);
        return n;
    }
};

} // namespace

std::uint64_t
obsExportBytes(const graphene::obs::Sink &sink)
{
    CountingBuf buf;
    std::ostream out(&buf);
    sink.tracer.writeEventsJsonl(out, sink.metrics.windowCycles());
    sink.tracer.writeChromeTrace(out);
    sink.metrics.writeJsonl(out);
    return buf.bytes;
}

} // namespace perfbench
