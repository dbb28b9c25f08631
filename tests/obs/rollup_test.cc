/**
 * @file
 * Tests for the cross-session telemetry rollup (DESIGN.md §16):
 * the graphene-obs-metrics-v1 round trip (including defensively
 * escaped metric names — the writer and reader must agree on the
 * quoting rules), the serve-artifact reader, the conservation audit,
 * fleet merging, schema rejection, and byte-deterministic export.
 * Under GRAPHENE_OBS_OFF only the compile-out contract is asserted.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "common/json.hh"
#include "model/energy.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/rollup.hh"

namespace graphene {
namespace obs {
namespace {

namespace fs = std::filesystem;

class TempFile
{
  public:
    explicit TempFile(const std::string &tag, const std::string &text)
    {
        _path = (fs::temp_directory_path() /
                 ("rollup_" + tag + "_" +
                  std::to_string(
                      reinterpret_cast<std::uintptr_t>(this))))
                    .string();
        std::ofstream os(_path, std::ios::trunc);
        os << text;
    }
    ~TempFile() { std::remove(_path.c_str()); }
    const std::string &path() const { return _path; }

  private:
    std::string _path;
};

#ifdef GRAPHENE_OBS_OFF

TEST(RollupCompileOut, EmptyTypeAndEmptyReads)
{
    static_assert(std::is_empty_v<Rollup>,
                  "OBS_OFF rollup must be zero-size");
    const Result<SessionSeries> series =
        readMetricsJsonl("/nonexistent", "t");
    ASSERT_TRUE(series.ok());
    EXPECT_TRUE(series.value().windows.empty());

    Rollup rollup;
    rollup.add(SessionSeries{});
    EXPECT_EQ(rollup.tenantCount(), 0u);
    std::ostringstream os;
    rollup.writeJsonl(os);
    EXPECT_TRUE(os.str().empty());
}

#else // telemetry compiled in

TEST(ReadMetricsJsonl, RoundTripsRegistryIncludingNastyNames)
{
    MetricsRegistry m;
    m.beginWindows(Cycle{100});
    // Names with JSON metacharacters: the writer escapes, the reader
    // unescapes, and the round trip must be exact (satellite S3).
    const std::string nasty = "weird\"name\\with:stuff";
    m.add(Cycle{10}, nasty, 2.0);
    m.add(Cycle{10}, "acts", 3.0);
    m.add(Cycle{150}, "acts", 4.0);
    m.sample(Cycle{20}, "lat", 5.0, 8, 32.0);
    m.finish();

    std::ostringstream os;
    m.writeJsonl(os);
    TempFile file("roundtrip", os.str());

    const Result<SessionSeries> read =
        readMetricsJsonl(file.path(), "t0");
    ASSERT_TRUE(read.ok()) << read.error().describe();
    const SessionSeries &series = read.value();
    EXPECT_EQ(series.tenant, "t0");
    EXPECT_EQ(series.windowCycles, 100u);
    ASSERT_EQ(series.windows.size(), 2u);
    EXPECT_DOUBLE_EQ(series.windows[0].values.at(nasty), 2.0);
    EXPECT_DOUBLE_EQ(series.windows[0].values.at("acts"), 3.0);
    EXPECT_DOUBLE_EQ(series.windows[1].values.at("acts"), 4.0);
    ASSERT_TRUE(series.haveTotals);
    EXPECT_DOUBLE_EQ(series.totals.at(nasty), 2.0);
    EXPECT_DOUBLE_EQ(series.totals.at("acts"), 7.0);
    // Histogram tails surface as synthesized total-only keys.
    EXPECT_EQ(series.totals.count("lat.p99"), 1u);

    // The parsed series must agree with the in-memory one.
    const SessionSeries direct = seriesFromRegistry(m, "t0");
    ASSERT_EQ(direct.windows.size(), series.windows.size());
    for (std::size_t i = 0; i < direct.windows.size(); ++i)
        EXPECT_EQ(direct.windows[i].values, series.windows[i].values)
            << "window " << i;
    EXPECT_EQ(direct.totals, series.totals);

    // And conservation holds for the shared keys.
    EXPECT_TRUE(checkConservation(series).ok());
}

TEST(ReadMetricsJsonl, RejectsForeignAndFutureSchemas)
{
    TempFile foreign("foreign", "{\"header\":true,\"format\":"
                                "\"something-else\",\"schema\":1}\n");
    const Result<SessionSeries> bad =
        readMetricsJsonl(foreign.path(), "t");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code(), ErrorCode::Parse);

    TempFile future(
        "future",
        "{\"header\":true,\"format\":\"graphene-obs-metrics-v1\","
        "\"schema\":999,\"window_cycles\":10,\"windows\":0}\n");
    const Result<SessionSeries> newer =
        readMetricsJsonl(future.path(), "t");
    ASSERT_FALSE(newer.ok());
    EXPECT_EQ(newer.error().code(), ErrorCode::Unsupported);

    const Result<SessionSeries> missing =
        readMetricsJsonl("/nonexistent/metrics.jsonl", "t");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code(), ErrorCode::Io);
}

TEST(ReadServeJsonl, WindowsSummaryAndErrorLines)
{
    TempFile file(
        "serve",
        "{\"window\":0,\"start\":0,\"end\":10,\"acts\":5,"
        "\"bit_flips\":0,\"buffered_rows\":3}\n"
        "{\"window\":1,\"start\":10,\"end\":20,\"acts\":7,"
        "\"bit_flips\":1,\"buffered_rows\":2}\n"
        "{\"summary\":1,\"windows\":2,\"acts\":12,\"bit_flips\":1}\n");
    const Result<SessionSeries> read =
        readServeJsonl(file.path(), "t0");
    ASSERT_TRUE(read.ok()) << read.error().describe();
    const SessionSeries &series = read.value();
    ASSERT_EQ(series.windows.size(), 2u);
    EXPECT_DOUBLE_EQ(series.windows[1].values.at("acts"), 7.0);
    // Absolute stamps are cumulative, not deltas: never ingested.
    EXPECT_EQ(series.windows[0].values.count("start"), 0u);
    EXPECT_EQ(series.windows[0].values.count("end"), 0u);
    ASSERT_TRUE(series.haveTotals);
    EXPECT_DOUBLE_EQ(series.totals.at("acts"), 12.0);
    // The window count is bookkeeping, not a metric.
    EXPECT_EQ(series.totals.count("windows"), 0u);
    EXPECT_FALSE(series.failed);

    TempFile failed("servefail",
                    "{\"window\":0,\"acts\":5}\n"
                    "{\"error\":\"Io\",\"detail\":\"lost\"}\n");
    const Result<SessionSeries> sad =
        readServeJsonl(failed.path(), "t1");
    ASSERT_TRUE(sad.ok());
    EXPECT_TRUE(sad.value().failed);
    EXPECT_EQ(sad.value().error, "Io");
}

TEST(CheckConservation, ListsEveryViolation)
{
    SessionSeries series;
    series.tenant = "t";
    WindowDelta w;
    w.window = 0;
    w.values["a"] = 1.0;
    w.values["b"] = 2.0;
    series.windows.push_back(w);
    series.haveTotals = true;
    series.totals["a"] = 1.0; // conserved
    series.totals["b"] = 5.0; // violated
    series.totals["c"] = 9.0; // totals-only: not checkable, skipped

    const Result<void> audit = checkConservation(series);
    ASSERT_FALSE(audit.ok());
    const std::string what = audit.error().describe();
    EXPECT_NE(what.find("b"), std::string::npos);
    EXPECT_EQ(what.find("\"a\""), std::string::npos);
}

SessionSeries
mkSeries(const std::string &tenant, double scale,
         std::size_t windows)
{
    SessionSeries series;
    series.tenant = tenant;
    series.windowCycles = 100;
    for (std::size_t i = 0; i < windows; ++i) {
        WindowDelta w;
        w.window = i;
        w.values["acts"] = scale * static_cast<double>(i + 1);
        series.windows.push_back(w);
        series.totals["acts"] += w.values["acts"];
    }
    series.haveTotals = true;
    return series;
}

TEST(Rollup, FleetSumsAcrossUnevenTenants)
{
    Rollup rollup;
    rollup.add(mkSeries("b", 1.0, 3));
    rollup.add(mkSeries("a", 10.0, 2)); // ends one window early

    EXPECT_EQ(rollup.tenantCount(), 2u);
    ASSERT_NE(rollup.find("a"), nullptr);
    EXPECT_EQ(rollup.find("nope"), nullptr);

    // tenants() is sorted by id, independent of insertion order.
    EXPECT_EQ(rollup.tenants().begin()->first, "a");

    const auto fleet = rollup.fleet();
    ASSERT_EQ(fleet.size(), 3u);
    EXPECT_DOUBLE_EQ(fleet[0].values.at("acts"), 11.0);
    EXPECT_DOUBLE_EQ(fleet[1].values.at("acts"), 22.0);
    // Tenant "a" ended: contributes nothing to window 2.
    EXPECT_DOUBLE_EQ(fleet[2].values.at("acts"), 3.0);

    EXPECT_DOUBLE_EQ(rollup.fleetTotals().at("acts"), 36.0);
}

TEST(Rollup, FleetValuesFollowMetricKinds)
{
    // The summaries of an 8-tenant graphene_serve run (default
    // duration, 0.25 tREFW per tenant). Peaks are maxima and the
    // energy overhead is a per-window ratio: neither may be summed.
    struct Summary
    {
        double victimRows, peak, energy;
    };
    const Summary tenants[] = {
        {493, 26, 0.020979888888888888},
        {13876, 12500, 0.59050088888888885},
        {54, 12615, 0.0022980000000000001},
        {40, 8334, 0.0017022222222222224},
        {470, 13005, 0.020001111111111112},
        {14391, 27, 0.61241699999999999},
        {40, 12516, 0.0017022222222222224},
        {80, 8333, 0.0034044444444444447},
    };
    Rollup rollup;
    std::uint64_t victim_rows = 0;
    for (std::size_t i = 0; i < std::size(tenants); ++i) {
        std::ostringstream line;
        line << "{\"summary\":1,\"victim_rows_refreshed\":"
             << tenants[i].victimRows
             << ",\"peak_disturbance\":" << tenants[i].peak
             << ",\"energy_overhead\":" << json::number(tenants[i].energy)
             << ",\"windows\":0.25}\n";
        TempFile file("kinds" + std::to_string(i), line.str());
        const Result<SessionSeries> read =
            readServeJsonl(file.path(), "t0" + std::to_string(i));
        ASSERT_TRUE(read.ok()) << read.error().describe();
        rollup.add(read.value());
        victim_rows += static_cast<std::uint64_t>(tenants[i].victimRows);
    }

    const auto fleet = rollup.fleetTotals();
    EXPECT_DOUBLE_EQ(fleet.at("victim_rows_refreshed"), 29444.0);
    EXPECT_DOUBLE_EQ(fleet.at("peak_disturbance"), 13005.0);
    EXPECT_DOUBLE_EQ(fleet.at("energy_overhead"),
                     model::EnergyModel::refreshOverhead(victim_rows, 1,
                                                         8 * 0.25));

    std::ostringstream prom;
    writeExposition(prom, rollup, ServiceStatus{});
    const std::string text = prom.str();
    EXPECT_NE(text.find("# TYPE graphene_fleet_peak_disturbance gauge\n"
                        "graphene_fleet_peak_disturbance 13005\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE graphene_fleet_energy_overhead gauge"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE graphene_serve_peak_disturbance gauge"),
              std::string::npos);
    EXPECT_NE(
        text.find("# TYPE graphene_fleet_victim_rows_refreshed_total "
                  "counter"),
        std::string::npos);
    EXPECT_EQ(text.find("peak_disturbance_total"), std::string::npos);
    EXPECT_EQ(text.find("energy_overhead_total"), std::string::npos);
}

TEST(Rollup, WriteJsonlIsByteDeterministic)
{
    Rollup rollup;
    rollup.add(mkSeries("t1", 2.0, 2));
    rollup.add(mkSeries("t0", 3.0, 2));

    std::ostringstream first, second;
    rollup.writeJsonl(first);
    rollup.writeJsonl(second);
    EXPECT_EQ(first.str(), second.str());
    EXPECT_NE(first.str().find("graphene-obs-rollup-v1"),
              std::string::npos);

    // Insertion order must not leak into the artifact.
    Rollup reordered;
    reordered.add(mkSeries("t0", 3.0, 2));
    reordered.add(mkSeries("t1", 2.0, 2));
    std::ostringstream third;
    reordered.writeJsonl(third);
    EXPECT_EQ(first.str(), third.str());
}

#endif // GRAPHENE_OBS_OFF

} // namespace
} // namespace obs
} // namespace graphene
