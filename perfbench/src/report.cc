#include "report.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>

#include "common/json.hh"
#include "common/random.hh"
#include "common/zipf.hh"
#include "dram/fault_model.hh"
#include "dram/timing.hh"

namespace perfbench {

namespace fs = std::filesystem;

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not a finite number");
        value = 0.0;
    }
    for (Metric &m : _metrics) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    _metrics.push_back({name, value, unit});
}

void
Report::fail(const std::string &what)
{
    _correct = false;
    std::cerr << "perfbench: check failed: " << what << "\n";
}

double
Report::okRatio() const
{
    return _attempted ? static_cast<double>(_attempted - _failed) /
                            static_cast<double>(_attempted)
                      : 1.0;
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += _correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(_attempted);
    out += ", \"failed\": " + std::to_string(_failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < _metrics.size(); ++i) {
        const Metric &m = _metrics[i];
        out += i ? ", " : "";
        out += graphene::json::quote(m.name) + ": {\"value\": " +
               exact(m.value) +
               ", \"unit\": " + graphene::json::quote(m.unit) + "}";
    }
    out += "}}";
    return out;
}

void
Digest::add(const std::string &line)
{
    std::uint64_t h = _state;
    for (unsigned char c : line + "\n") {
        h ^= c;
        h *= 1099511628211ULL;
    }
    _state = h;
}

std::string
Digest::hex() const
{
    return graphene::strprintf(
        "%016llx", static_cast<unsigned long long>(_state));
}

std::string
exact(double v)
{
    return graphene::strprintf("%.17g", v);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
treeBytes(const std::string &dir)
{
    std::uint64_t bytes = 0;
    std::error_code ec;
    for (const auto &entry :
         fs::recursive_directory_iterator(dir, ec))
        if (entry.is_regular_file(ec))
            bytes += entry.file_size(ec);
    return bytes;
}

void
freshDir(const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
}

void
reportCommonLayers(const Options &options, SpanTrace &trace,
                   Report &report)
{
    namespace g = graphene;
    const bool tiny = options.size == Size::Tiny;
    const std::uint64_t calls = tiny ? 100000 : 4000000;

    // The timer itself: an empty span (past the raw-record cap, as
    // most spans of a traced loop are), so layer numbers can be read
    // against it.
    SpanTrace bare(0);
    const unsigned empty_id = bare.id("trace.empty");
    for (std::uint64_t i = 0; i < calls / 4; ++i) {
        bare.open(empty_id);
        bare.close();
    }
    report.metric("trace.span_cost_ns",
                  bare.totals("trace.empty").nsPerCall(), "ns");

    // ns -> cycle conversion over run-time inputs (tRC..tREFW range).
    const g::dram::TimingParams timing = g::dram::TimingParams::ddr4_2400();
    g::Rng rng(options.seed);
    std::vector<g::Nanoseconds> inputs(1024);
    for (auto &ns : inputs)
        ns = g::Nanoseconds{1.0 + rng.nextDouble() * 64.0e6};
    std::uint64_t sink = 0;
    trace.open(trace.id("dram.to_cycles"));
    for (std::uint64_t i = 0; i < calls; ++i)
        sink += timing.toCycles(inputs[i & 1023]).value();
    trace.close(calls);
    report.metric("dram.to_cycles_ns",
                  trace.totals("dram.to_cycles").nsPerCall(), "ns");

    // Zipf sampling over the skewed profiles' working sets (sphinx3,
    // mcf): the inner call of SyntheticGenerator::next.
    const g::ZipfSampler sphinx(4096, 0.45), mcf(16384, 0.30);
    trace.open(trace.id("workloads.zipf"));
    for (std::uint64_t i = 0; i < calls / 2; ++i)
        sink += sphinx.sample(rng) + mcf.sample(rng);
    trace.close(calls / 2 * 2);
    report.metric("workloads.zipf_ns",
                  trace.totals("workloads.zipf").nsPerCall(), "ns");

    // One bank's FaultModel, as every system cell builds 64 of them.
    g::dram::FaultConfig fault;
    const unsigned builds = tiny ? 2 : 16;
    const unsigned build_id = trace.id("dram.fault_build");
    for (unsigned i = 0; i < builds; ++i) {
        trace.open(build_id);
        g::dram::FaultModel model(fault, 65536);
        sink += model.numRows();
        trace.close();
    }
    report.metric("dram.fault_build_ms",
                  trace.totals("dram.fault_build").nsPerCall() * 1e-6,
                  "ms");
    if (sink == 0)
        report.fail("common layer probes produced no work");
}

} // namespace perfbench
