// Known-bad fixture for the boundary-fatal rule: library code (not
// the logging/error/contract machinery) calling fatal()/panic()
// directly, bare or namespace-qualified, instead of returning a
// typed Result or using GRAPHENE_CHECK. The functions come from
// common/logging.hh.
#include <cstdint>
#include <string>

namespace fixture {

std::uint64_t
parseCount(const std::string &text)
{
    if (text.empty())
        fatal("empty count field");
    if (text.size() > 20)
        graphene::fatal("count field too long");
    if (text[0] == '-')
        ::graphene::fatal("negative count");
    std::uint64_t total = 0;
    for (char c : text) {
        if (c == ' ')
            graphene::panic("space in count");
        if (c < '0' || c > '9')
            panic("non-digit in count");
        total = total * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return total;
}

// Member calls and other namespaces are not the process-exit helpers,
// and a waived call must NOT fire:
void
shutdownNow(Reporter &reporter)
{
    reporter.fatal("bye");
    other::panic("bye");
    fatal("bye"); // analyze: allow(boundary-fatal)
}

} // namespace fixture
