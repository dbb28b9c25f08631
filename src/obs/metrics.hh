/**
 * @file
 * The windowed metrics registry: named Scalar/Histogram statistics
 * (common/stats.hh) snapshotted at every tREFW-window boundary.
 *
 * Probe sites update metrics with the current simulation cycle; the
 * registry closes a window whenever an update lands past the current
 * window boundary, recording the *delta* of every statistic since
 * the previous boundary. The series therefore satisfies conservation
 * by construction — the sum of a statistic's window deltas equals
 * its end-of-run total — which tests assert (tests/obs) and which
 * replaces the old ad-hoc end-of-run counters with data you can plot
 * over time.
 *
 * Window attribution is max-monotonic: the registry never reopens a
 * closed window, so an update whose cycle is slightly behind the
 * newest boundary (banks advance independently) lands in the current
 * window. Attribution is a pure function of the update stream:
 * identical runs produce identical series.
 *
 * Under GRAPHENE_OBS_OFF the registry collapses to an empty type with
 * inline no-op methods.
 */

#ifndef OBS_METRICS_HH
#define OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/io.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace graphene {
namespace obs {

/**
 * Schema ordinal of the graphene-obs-metrics-v1 JSONL stream. Bump
 * only with a reader-visible layout change; the rollup reader rejects
 * files from a newer schema instead of guessing.
 */
inline constexpr std::uint32_t kMetricsJsonlSchema = 1;

#ifndef GRAPHENE_OBS_OFF

class MetricsRegistry
{
  public:
    /** One closed window: its ordinal and every statistic's delta. */
    struct WindowRow
    {
        std::uint64_t window = 0;
        std::map<std::string, double> deltas;
    };

    /**
     * Set the window length (tREFW in cycles) and clear any series.
     * Zero keeps everything in one window.
     */
    void beginWindows(Cycle window_cycles);

    /** Add @p v to scalar @p name, attributing to @p cycle's window. */
    void add(Cycle cycle, const std::string &name, double v = 1.0);

    /** Record one histogram sample (get-or-create with the given
     *  bucketing; the first call fixes the shape). */
    void sample(Cycle cycle, const std::string &name, double v,
                std::size_t num_buckets, double max);

    /** Close the final (partial) window. Idempotent. */
    void finish();

    Cycle windowCycles() const { return _windowCycles; }
    const StatGroup &totals() const { return _group; }
    const std::vector<WindowRow> &windows() const { return _rows; }

    /** Sum of @p name's deltas over all closed windows. */
    double windowSum(const std::string &name) const;

    /**
     * JSONL: a header line, one flat object per closed window
     * (statistic name -> delta), and a totals line.
     */
    void writeJsonl(std::ostream &os) const;

    /** Serialize the whole registry (DESIGN.md §14); maps iterate
     *  sorted, so equal registries give equal bytes. */
    void saveState(ckpt::Writer &w) const;

    /** Inverse of saveState(); flags malformed payloads on @p r. */
    void restoreState(ckpt::Reader &r);

  private:
    void advanceTo(Cycle cycle);
    void closeWindow();

    StatGroup _group;
    std::map<std::string, double> _lastScalar;
    std::map<std::string, std::uint64_t> _lastHistSamples;
    std::vector<WindowRow> _rows;
    Cycle _windowCycles{};
    std::uint64_t _currentWindow = 0;
    bool _open = false;
};

#else // GRAPHENE_OBS_OFF

/** Compiled-out registry: accepts everything, stores nothing. */
class MetricsRegistry
{
  public:
    struct WindowRow
    {
        std::uint64_t window = 0;
        std::map<std::string, double> deltas;
    };

    void beginWindows(Cycle) {}
    void add(Cycle, const std::string &, double = 1.0) {}
    void sample(Cycle, const std::string &, double, std::size_t,
                double)
    {
    }
    void finish() {}
    Cycle windowCycles() const { return Cycle{}; }

    const StatGroup &totals() const
    {
        static const StatGroup empty;
        return empty;
    }

    const std::vector<WindowRow> &windows() const
    {
        static const std::vector<WindowRow> empty;
        return empty;
    }

    double windowSum(const std::string &) const { return 0.0; }
    void writeJsonl(std::ostream &) const {}

    /** An empty registry in the instrumented layout; a non-empty one
     *  (written by an instrumented build) is refused on restore. */
    void saveState(ckpt::Writer &w) const
    {
        for (int i = 0; i < 7; ++i)
            w.u64(0);
        w.boolean(false);
    }
    void restoreState(ckpt::Reader &r)
    {
        for (int i = 0; i < 5; ++i) // the element counts
            if (r.u64() != 0)
                r.fail();
        r.u64(); // window length
        r.u64(); // current window
        r.boolean();
    }
};

static_assert(std::is_empty_v<MetricsRegistry>,
              "GRAPHENE_OBS_OFF must compile the metrics registry "
              "down to an empty type");

#endif // GRAPHENE_OBS_OFF

} // namespace obs
} // namespace graphene

#endif // OBS_METRICS_HH
