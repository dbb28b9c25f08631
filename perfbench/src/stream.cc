#include "stream.hh"

#include <iostream>

namespace perfbench {

using graphene::Error;
using graphene::ErrorCode;
using graphene::Result;
using graphene::strprintf;

StreamLimits
limitsFor(const graphene::dram::TimingParams &timing, unsigned k)
{
    StreamLimits limits;
    limits.rc = timing.cRC();
    limits.rfc = timing.cRFC();
    limits.window = timing.cREFW() / k;
    limits.maxActs = timing.maxActsInWindow(k).value();
    return limits;
}

Result<void>
checkLegalStream(const ActStream &stream, const StreamLimits &limits)
{
    auto illegal = [&](const StreamEvent &e, std::uint64_t window,
                       const std::string &why) {
        return Error(
            ErrorCode::InvalidArgument,
            strprintf("illegal ACT stream %s: bank %u, window %llu, "
                      "row %u, cycle %llu: %s",
                      stream.label.c_str(), stream.bank,
                      static_cast<unsigned long long>(window),
                      e.row.value(),
                      static_cast<unsigned long long>(e.cycle.value()),
                      why.c_str()));
    };

    if (limits.window == Cycle{} || limits.rc == Cycle{})
        return Error(ErrorCode::InvalidArgument,
                     "legal-stream guard: empty window or tRC");

    bool have_act = false;
    Cycle last_act{};
    bool have_ref = false;
    Cycle last_ref{};
    std::uint64_t window = 0;
    std::uint64_t in_window = 0;
    for (const StreamEvent &e : stream.events) {
        if (e.kind == StreamEvent::Kind::Ref) {
            last_ref = e.cycle;
            have_ref = true;
            continue;
        }
        if (e.kind != StreamEvent::Kind::Act)
            continue;
        const std::uint64_t w = e.cycle / limits.window;
        if (have_act && e.cycle < last_act)
            return illegal(e, w, "ACT cycle runs backwards");
        if (have_act && e.cycle - last_act < limits.rc)
            return illegal(
                e, w,
                strprintf("ACT %llu cycles after the previous one, "
                          "tRC is %llu",
                          static_cast<unsigned long long>(
                              (e.cycle - last_act).value()),
                          static_cast<unsigned long long>(
                              limits.rc.value())));
        if (have_ref && e.cycle >= last_ref &&
            e.cycle < last_ref + limits.rfc)
            return illegal(
                e, w,
                strprintf("ACT inside the tRFC blackout of the REF at "
                          "cycle %llu",
                          static_cast<unsigned long long>(
                              last_ref.value())));
        if (w != window) {
            window = w;
            in_window = 0;
        }
        if (++in_window > limits.maxActs)
            return illegal(
                e, w,
                strprintf("more than W = %llu ACTs in one reset "
                          "window",
                          static_cast<unsigned long long>(
                              limits.maxActs)));
        last_act = e.cycle;
        have_act = true;
    }
    return Result<void>::success();
}

bool
StreamGuard::admit(const ActStream &stream)
{
    const Result<void> legal = checkLegalStream(stream, _limits);
    if (legal.ok())
        return true;
    if (++_rejected <= 3)
        std::cerr << "perfbench: guard: " << legal.error().describe()
                  << "\n";
    return false;
}

} // namespace perfbench
