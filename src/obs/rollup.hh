/**
 * @file
 * Cross-session telemetry rollup (DESIGN.md §16).
 *
 * The serving driver runs many tenant sessions side by side; each one
 * writes its own windowed series (a serve session JSONL, or a
 * MetricsRegistry windows file from the experiment runner). A Rollup
 * merges those per-session window deltas into per-tenant series plus
 * a fleet-wide series summed by window ordinal, which is what the
 * exposition writer, the alert evaluator, and serve_dash consume.
 *
 * Two readers parse the two on-disk shapes back into the common
 * SessionSeries form:
 *  - readMetricsJsonl: the graphene-obs-metrics-v1 stream
 *    (MetricsRegistry::writeJsonl — header, window rows, totals);
 *  - readServeJsonl: a serve session artifact (window lines, one
 *    summary line, possibly a trailing error line).
 * Both enumerate metric names with json::fields(), so arbitrary —
 * even escape-laden — metric names round-trip.
 *
 * Determinism contract: every container is ordinal- or name-sorted,
 * writeJsonl() bytes are a pure function of the ingested series, and
 * no wall-clock field ever enters a rollup artifact — which is why
 * the serve CI leg can byte-compare rollups across --jobs counts and
 * across a SIGKILL + --resume run.
 *
 * Under GRAPHENE_OBS_OFF the Rollup collapses to an empty type and
 * the readers return empty series: the telemetry layer compiles out
 * to zero size like the rest of src/obs.
 */

#ifndef OBS_ROLLUP_HH
#define OBS_ROLLUP_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "obs/metrics.hh"

namespace graphene {
namespace obs {

/** One closed window of one session: ordinal plus metric deltas. */
struct WindowDelta
{
    std::uint64_t window = 0;
    std::map<std::string, double> values;
};

/**
 * One session's complete windowed series in reader-neutral form.
 * `totals` carries the end-of-run cumulative values when the source
 * had them (a totals/summary line); conservation — sum of window
 * deltas equals the total for every shared key — is checkable via
 * checkConservation().
 */
struct SessionSeries
{
    std::string tenant;
    std::uint64_t windowCycles = 0;
    std::vector<WindowDelta> windows;
    std::map<std::string, double> totals;
    bool haveTotals = false;
    /** Simulated span in tREFW units (a serve summary's `windows`);
     *  weights this tenant's Ratio metrics in the fleet value. */
    double spanWindows = 0.0;
    /** The artifact ended in an `"error"` line (failed session). */
    bool failed = false;
    std::string error;
};

#ifndef GRAPHENE_OBS_OFF

/**
 * How tenants' end-of-run values of one metric combine into the fleet
 * value: a Counter adds up, a Max (peak_disturbance) takes the largest,
 * and a Ratio (energy_overhead, per simulated window) weights each
 * tenant by its spanWindows — i.e. EnergyModel::refreshOverhead(sum of
 * victim rows, 1, sum of spans).
 */
enum class MetricKind { Counter, Max, Ratio };

/** The kind of the serve session metric @p name. */
MetricKind metricKind(const std::string &name);

/**
 * Parse a graphene-obs-metrics-v1 stream (MetricsRegistry JSONL).
 * Typed errors on a missing/foreign header, a newer schema ordinal,
 * or a malformed line.
 */
Result<SessionSeries> readMetricsJsonl(const std::string &path,
                                       const std::string &tenant);

/**
 * Parse a serve session artifact (`session_<id>.jsonl`): window
 * lines become WindowDeltas, the summary line becomes totals, an
 * error line marks the series failed.
 */
Result<SessionSeries> readServeJsonl(const std::string &path,
                                     const std::string &tenant);

/** The registry's in-memory series, without the JSONL round trip. */
SessionSeries seriesFromRegistry(const MetricsRegistry &registry,
                                 const std::string &tenant);

/**
 * Conservation audit: for every metric present in both the window
 * deltas and the totals, |sum(deltas) - total| must be <= @p tol.
 * All violations are listed (ErrorCollector), none hidden.
 */
Result<void> checkConservation(const SessionSeries &series,
                               double tol = 1e-6);

/** The cross-session aggregator. */
class Rollup
{
  public:
    /** Ingest one session's series (last add of a tenant id wins). */
    void add(const SessionSeries &series);

    std::size_t tenantCount() const { return _tenants.size(); }

    /** All ingested series, keyed (and therefore sorted) by tenant. */
    const std::map<std::string, SessionSeries> &tenants() const
    {
        return _tenants;
    }

    /** The named tenant's series, or null. */
    const SessionSeries *find(const std::string &tenant) const;

    /**
     * Fleet-wide series: for each window ordinal, the sum of every
     * tenant's delta per metric (tenants whose series already ended
     * contribute nothing to later ordinals).
     */
    std::vector<WindowDelta> fleet() const;

    /** Every tenant's totals combined per metric by its kind. */
    std::map<std::string, double> fleetTotals() const;

    /**
     * JSONL artifact: one header, one line per (tenant, window), one
     * totals line per tenant, then the fleet series and fleet totals.
     * Bytes are a pure function of the ingested series.
     */
    void writeJsonl(std::ostream &os) const;

  private:
    std::map<std::string, SessionSeries> _tenants;
};

#else // GRAPHENE_OBS_OFF

inline Result<SessionSeries>
readMetricsJsonl(const std::string &, const std::string &)
{
    return SessionSeries{};
}

inline Result<SessionSeries>
readServeJsonl(const std::string &, const std::string &)
{
    return SessionSeries{};
}

inline SessionSeries
seriesFromRegistry(const MetricsRegistry &, const std::string &)
{
    return SessionSeries{};
}

inline Result<void>
checkConservation(const SessionSeries &, double = 1e-6)
{
    return Result<void>::success();
}

/** Compiled-out rollup: ingests nothing, writes nothing. */
class Rollup
{
  public:
    void add(const SessionSeries &) {}
    std::size_t tenantCount() const { return 0; }

    const std::map<std::string, SessionSeries> &tenants() const
    {
        static const std::map<std::string, SessionSeries> empty;
        return empty;
    }

    const SessionSeries *find(const std::string &) const
    {
        return nullptr;
    }

    std::vector<WindowDelta> fleet() const { return {}; }
    std::map<std::string, double> fleetTotals() const { return {}; }
    void writeJsonl(std::ostream &) const {}
};

static_assert(std::is_empty_v<Rollup>,
              "GRAPHENE_OBS_OFF must compile the rollup down to an "
              "empty type");

#endif // GRAPHENE_OBS_OFF

} // namespace obs
} // namespace graphene

#endif // OBS_ROLLUP_HH
