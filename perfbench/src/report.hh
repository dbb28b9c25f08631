/**
 * @file
 * The result line, output checks and simulated-stats digest shared by
 * the three workloads, plus the small host measurements they all use.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hh"

namespace perfbench {

/** How big a run is: `Full` for measurement, `Tiny` for self-tests. */
enum class Size
{
    Full,
    Tiny,
};

/** Command-line options of one workload run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    Size size = Size::Full;
    std::string workDir; ///< Scratch output directory (created).
};

/**
 * The run's verdict and metrics. Checks that fail mark the run
 * incorrect and say why on stderr; the caller still prints the line.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Record one attempted operation (cell or session). */
    void attempt(bool ok)
    {
        ++_attempted;
        _failed += !ok;
    }

    /** Fail the output check named @p what. */
    void fail(const std::string &what);

    /** Check @p cond; fail with @p what when it does not hold. */
    void check(bool cond, const std::string &what)
    {
        if (!cond)
            fail(what);
    }

    /** ok / attempted (1 when nothing was attempted yet). */
    double okRatio() const;

    /** The single JSON result line. */
    std::string json() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };

    std::vector<Metric> _metrics;
    bool _correct = true;
    std::uint64_t _attempted = 0;
    std::uint64_t _failed = 0;
};

/** FNV-1a accumulator over canonical text: the simulated-stats digest. */
class Digest
{
  public:
    void add(const std::string &line);
    std::uint64_t value() const { return _state; }
    std::string hex() const;

  private:
    std::uint64_t _state = 1469598103934665603ULL;
};

/** Exact text of a double (round-trips bit for bit). */
std::string exact(double v);

double median(std::vector<double> values);

/** Peak resident set of this process, MB. */
double peakRssMb();

/** Bytes of every regular file under @p dir. */
std::uint64_t treeBytes(const std::string &dir);

/** Create @p dir (and parents); remove what was in it. */
void freshDir(const std::string &dir);

/** Seconds since @p start_ns (a nowNs() reading). */
inline double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/**
 * Per-layer metrics every traced run reports, whatever the workload:
 * the trace's own cost, and the calls that no workload path wraps
 * (ns->cycle conversion, Zipf sampling, FaultModel construction).
 */
void reportCommonLayers(const Options &options, SpanTrace &trace,
                        Report &report);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
