/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span covers one call (or one batch of consecutive calls) into a
 * layer's public API, made from the benchmark's own code. Each span
 * records its name, start, end and parent. Per-name aggregates
 * (calls, total and self time) are kept for every span; raw records
 * are kept up to a cap and written out when the run ends. Self time
 * is a span's duration minus the part of it its child spans cover.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"

namespace perfbench {

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

class SpanTrace
{
  public:
    struct Totals
    {
        std::uint64_t spans = 0; ///< Closed spans.
        std::uint64_t calls = 0; ///< Layer calls they covered.
        double totalNs = 0.0;
        double selfNs = 0.0;

        double nsPerCall() const
        {
            return calls ? totalNs / static_cast<double>(calls) : 0.0;
        }
    };

    explicit SpanTrace(std::size_t raw_capacity = 1u << 15)
        : _rawCapacity(raw_capacity)
    {
    }

    /** Stable id of @p name (interned once, used on the hot path). */
    unsigned id(const std::string &name);

    void open(unsigned id)
    {
        const std::uint32_t raw =
            _raw.size() < _rawCapacity
                ? static_cast<std::uint32_t>(_raw.size())
                : kNoRaw;
        if (raw != kNoRaw)
            _raw.push_back({id, _stack.empty() ? kNoRaw
                                               : _stack.back().raw,
                            0, 0});
        _stack.push_back({id, raw, nowNs(), 0});
    }

    /** Close the innermost span; it covered @p calls layer calls. */
    void close(std::uint64_t calls = 1)
    {
        const std::int64_t end = nowNs();
        const Open top = _stack.back();
        _stack.pop_back();
        const std::int64_t dur = end - top.start;
        Totals &t = _totals[top.id];
        ++t.spans;
        t.calls += calls;
        t.totalNs += static_cast<double>(dur);
        t.selfNs += static_cast<double>(dur - top.childNs);
        if (!_stack.empty())
            _stack.back().childNs += dur;
        if (top.raw != kNoRaw) {
            _raw[top.raw].start = top.start;
            _raw[top.raw].end = end;
        }
    }

    /** Run @p f inside a span named by @p id. */
    template <typename F>
    decltype(auto) span(unsigned id, F &&f)
    {
        open(id);
        struct Closer
        {
            SpanTrace *trace;
            ~Closer() { trace->close(); }
        } closer{this};
        return f();
    }

    /** Aggregates of @p name (zeros if it never ran). */
    Totals totals(const std::string &name) const;

    /** Every span name with its aggregates, in first-use order. */
    std::vector<std::pair<std::string, Totals>> all() const;

    /** Write the raw spans as JSONL (name, start, end, parent). */
    graphene::Result<void> writeJsonl(const std::string &path) const;

  private:
    static constexpr std::uint32_t kNoRaw = 0xffffffffu;

    struct Open
    {
        unsigned id;
        std::uint32_t raw;
        std::int64_t start;
        std::int64_t childNs;
    };

    struct Raw
    {
        unsigned id;
        std::uint32_t parent;
        std::int64_t start;
        std::int64_t end;
    };

    std::size_t _rawCapacity;
    std::vector<std::string> _names;
    std::vector<Totals> _totals;
    std::vector<Open> _stack;
    std::vector<Raw> _raw;
};

/**
 * Self time one empty child span adds to its parent: the tracer's own
 * cost inside a traced region (calibrated once per process).
 */
double nestedSpanCostNs();

/**
 * Share of the time of every @p region span that none of the
 * @p layers spans inside it covers, net of the tracer's own cost per
 * child span (nestedSpanCostNs). Clamped to [0, 1].
 */
double unattributedShare(const SpanTrace &trace, const std::string &region,
                         const std::vector<std::string> &layers);

/**
 * Wrap @p f in a span when @p trace is set; run it bare otherwise, so
 * one copy of a loop serves both the timed and the untimed passes.
 */
template <typename F>
decltype(auto)
maybeSpan(SpanTrace *trace, unsigned id, F &&f)
{
    if (trace)
        return trace->span(id, static_cast<F &&>(f));
    return f();
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
