#include "spans.hh"

#include <algorithm>
#include <fstream>

#include "common/json.hh"

namespace perfbench {

using graphene::Error;
using graphene::ErrorCode;
using graphene::Result;

unsigned
SpanTrace::id(const std::string &name)
{
    for (unsigned i = 0; i < _names.size(); ++i)
        if (_names[i] == name)
            return i;
    _names.push_back(name);
    _totals.emplace_back();
    return static_cast<unsigned>(_names.size() - 1);
}

SpanTrace::Totals
SpanTrace::totals(const std::string &name) const
{
    for (unsigned i = 0; i < _names.size(); ++i)
        if (_names[i] == name)
            return _totals[i];
    return {};
}

std::vector<std::pair<std::string, SpanTrace::Totals>>
SpanTrace::all() const
{
    std::vector<std::pair<std::string, Totals>> out;
    for (unsigned i = 0; i < _names.size(); ++i)
        out.emplace_back(_names[i], _totals[i]);
    return out;
}

double
nestedSpanCostNs()
{
    static const double cost = [] {
        SpanTrace t(0);
        const unsigned parent = t.id("parent");
        const unsigned child = t.id("child");
        // Several children per parent, as in a traced loop iteration,
        // so the parent's own open/close is not charged to each child.
        const unsigned parents = 20000, children = 16;
        for (unsigned i = 0; i < parents; ++i) {
            t.open(parent);
            for (unsigned k = 0; k < children; ++k) {
                t.open(child);
                t.close();
            }
            t.close();
        }
        return t.totals("parent").selfNs / (parents * children);
    }();
    return cost;
}

double
unattributedShare(const SpanTrace &trace, const std::string &region,
                  const std::vector<std::string> &layers)
{
    const SpanTrace::Totals r = trace.totals(region);
    if (r.totalNs <= 0.0)
        return 0.0;
    double covered = 0.0;
    for (const std::string &name : layers) {
        const SpanTrace::Totals l = trace.totals(name);
        covered += l.totalNs +
                   static_cast<double>(l.spans) * nestedSpanCostNs();
    }
    return std::clamp(1.0 - covered / r.totalNs, 0.0, 1.0);
}

Result<void>
SpanTrace::writeJsonl(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return Error(ErrorCode::Io, "cannot write spans to " + path);
    for (std::size_t i = 0; i < _raw.size(); ++i) {
        const Raw &r = _raw[i];
        out << "{\"id\":" << i << ",\"name\":"
            << graphene::json::quote(_names[r.id])
            << ",\"start_ns\":" << r.start << ",\"end_ns\":" << r.end
            << ",\"parent\":";
        if (r.parent == kNoRaw)
            out << "null";
        else
            out << r.parent;
        out << "}\n";
    }
    out.flush();
    if (!out)
        return Error(ErrorCode::Io, "short write of spans to " + path);
    return Result<void>::success();
}

} // namespace perfbench
