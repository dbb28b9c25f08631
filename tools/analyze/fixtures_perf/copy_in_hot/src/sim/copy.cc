// Known-bad: a large struct passed by value into a hot function.
#include <cstdint>

namespace fx {

struct Request
{
    std::uint64_t row = 0;   // analyze: allow(raw-domain-type)
    std::uint64_t bank = 0;
    std::uint64_t cycle = 0; // analyze: allow(raw-domain-type)
    double weight = 0.0;
};

int
tick(Request req)
{
    return static_cast<int>(req.row + req.bank);
}

} // namespace fx
