// Known-bad fixture: contract macro used in a header that does not
// include check/contracts.hh itself.
#pragma once

#include <cstdint>

namespace fixture {

inline std::uint64_t
half(std::uint64_t n)
{
    GRAPHENE_EXPECTS(n % 2 == 0);
    return n / 2;
}

inline std::uint64_t
quarter(std::uint64_t n)
{
    // analyze: allow(contract-macro-include)
    GRAPHENE_CHECK(n % 4 == 0);
    return n / 4;
}

} // namespace fixture
