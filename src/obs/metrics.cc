#include "obs/metrics.hh"

#ifndef GRAPHENE_OBS_OFF

#include "common/json.hh"

namespace graphene {
namespace obs {

void
MetricsRegistry::beginWindows(Cycle window_cycles)
{
    _group.reset();
    _lastScalar.clear();
    _lastHistSamples.clear();
    _rows.clear();
    _windowCycles = window_cycles;
    _currentWindow = 0;
    _open = true;
}

void
MetricsRegistry::advanceTo(Cycle cycle)
{
    if (!_open) {
        // First update after construction or finish(): reopen.
        _open = true;
    }
    if (_windowCycles == Cycle{})
        return;
    const std::uint64_t idx = cycle / _windowCycles;
    // Max-monotonic: never reopen a closed window; late updates from
    // banks that lag the newest boundary land in the current window.
    while (_currentWindow < idx) {
        closeWindow();
        ++_currentWindow;
    }
}

void
MetricsRegistry::add(Cycle cycle, const std::string &name, double v)
{
    advanceTo(cycle);
    _group.scalar(name) += v;
}

void
MetricsRegistry::sample(Cycle cycle, const std::string &name, double v,
                        std::size_t num_buckets, double max)
{
    advanceTo(cycle);
    _group.histogram(name, num_buckets, max).sample(v);
}

void
MetricsRegistry::closeWindow()
{
    WindowRow row;
    row.window = _currentWindow;
    for (const auto &kv : _group.scalars()) {
        const double delta = kv.second.value() - _lastScalar[kv.first];
        row.deltas[kv.first] = delta;
        _lastScalar[kv.first] = kv.second.value();
    }
    for (const auto &kv : _group.histograms()) {
        const std::uint64_t samples = kv.second.samples();
        const std::string key = kv.first + ".samples";
        row.deltas[key] = static_cast<double>(
            samples - _lastHistSamples[kv.first]);
        _lastHistSamples[kv.first] = samples;
    }
    _rows.push_back(std::move(row));
}

void
MetricsRegistry::finish()
{
    if (!_open)
        return;
    closeWindow();
    _open = false;
}

double
MetricsRegistry::windowSum(const std::string &name) const
{
    double sum = 0.0;
    for (const auto &row : _rows) {
        const auto it = row.deltas.find(name);
        if (it != row.deltas.end())
            sum += it->second;
    }
    return sum;
}

namespace {

/** A name-keyed map: its size, then each name and @p put(value). */
template <class Map, class Put>
void
saveMap(ckpt::Writer &w, const Map &map, Put put)
{
    w.u64(map.size());
    for (const auto &[name, value] : map) {
        w.str(name);
        put(value);
    }
}

/** Inverse of saveMap(): @p take reads the value behind each name. */
template <class Take>
void
restoreMap(ckpt::Reader &r, Take take)
{
    for (std::uint64_t i = 0, n = r.boundedCount(); i < n; ++i)
        take(r.str());
}

} // namespace

void
MetricsRegistry::saveState(ckpt::Writer &w) const
{
    saveMap(w, _group.scalars(), [&](const Scalar &s) { w.f64(s.value()); });
    saveMap(w, _group.histograms(), [&](const Histogram &h) {
        w.u64(h.buckets().size());
        for (const std::uint64_t b : h.buckets())
            w.u64(b);
        w.f64(h.bucketWidth());
        w.u64(h.count());
        w.u64(h.overflow());
        w.f64(h.sum());
        w.f64(h.max());
    });
    saveMap(w, _lastScalar, [&](double v) { w.f64(v); });
    saveMap(w, _lastHistSamples, [&](std::uint64_t n) { w.u64(n); });
    w.u64(_rows.size());
    for (const WindowRow &row : _rows) {
        w.u64(row.window);
        saveMap(w, row.deltas, [&](double v) { w.f64(v); });
    }
    w.u64(_windowCycles.value());
    w.u64(_currentWindow);
    w.boolean(_open);
}

void
MetricsRegistry::restoreState(ckpt::Reader &r)
{
    _group = StatGroup{};
    restoreMap(r, [&](const std::string &name) {
        _group.scalar(name).restoreValue(r.f64());
    });
    restoreMap(r, [&](const std::string &name) {
        std::vector<std::uint64_t> buckets(r.boundedCount());
        for (std::uint64_t &b : buckets)
            b = r.u64();
        const double width = r.f64();
        const std::uint64_t count = r.u64();
        const std::uint64_t overflow = r.u64();
        const double sum = r.f64();
        const double max_seen = r.f64();
        if (r.failed())
            return;
        // histogram() fixes the shape on first call; max is
        // width x buckets by construction.
        const std::size_t size = buckets.size();
        _group.histogram(name, size, width * static_cast<double>(size))
            .restoreCounts(std::move(buckets), count, overflow, sum,
                           max_seen);
    });
    _lastScalar.clear();
    restoreMap(r, [&](const std::string &name) {
        _lastScalar[name] = r.f64();
    });
    _lastHistSamples.clear();
    restoreMap(r, [&](const std::string &name) {
        _lastHistSamples[name] = r.u64();
    });
    _rows.clear();
    for (std::uint64_t i = 0, n = r.boundedCount(); i < n; ++i) {
        WindowRow &row = _rows.emplace_back();
        row.window = r.u64();
        restoreMap(r, [&](const std::string &name) {
            row.deltas[name] = r.f64();
        });
    }
    _windowCycles = Cycle(r.u64());
    _currentWindow = r.u64();
    _open = r.boolean();
}

void
MetricsRegistry::writeJsonl(std::ostream &os) const
{
    // The header pins an explicit schema ordinal besides the format
    // string: readers (obs/rollup.hh) refuse lines from a future
    // schema instead of misparsing them. Metric names are arbitrary
    // caller strings, so every key goes through json::quote — the
    // round-trip test feeds names with quotes/backslashes through the
    // rollup reader.
    os << "{\"header\":true,\"format\":\"graphene-obs-metrics-v1\""
       << ",\"schema\":" << kMetricsJsonlSchema
       << ",\"window_cycles\":" << _windowCycles.value()
       << ",\"windows\":" << _rows.size() << "}\n";
    for (const auto &row : _rows) {
        os << "{\"window\":" << row.window;
        for (const auto &kv : row.deltas)
            os << "," << json::quote(kv.first) << ":"
               << json::number(kv.second);
        os << "}\n";
    }
    os << "{\"totals\":true";
    for (const auto &kv : _group.scalars())
        os << "," << json::quote(kv.first) << ":"
           << json::number(kv.second.value());
    for (const auto &kv : _group.histograms()) {
        os << "," << json::quote(kv.first + ".samples") << ":"
           << json::number(static_cast<double>(kv.second.samples()));
        // Bucket-interpolated tail latencies: rollups and alert
        // rules watch tails, not means.
        os << "," << json::quote(kv.first + ".p50") << ":"
           << json::number(kv.second.quantile(0.50));
        os << "," << json::quote(kv.first + ".p95") << ":"
           << json::number(kv.second.quantile(0.95));
        os << "," << json::quote(kv.first + ".p99") << ":"
           << json::number(kv.second.quantile(0.99));
    }
    os << "}\n";
}

} // namespace obs
} // namespace graphene

#else // GRAPHENE_OBS_OFF

// Fully inline when compiled out; see metrics.hh.

#endif // GRAPHENE_OBS_OFF
