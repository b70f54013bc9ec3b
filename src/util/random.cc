#include "util/random.hh"

#include <cmath>

#include "util/logging.hh"

namespace memsec {

namespace {

uint64_t
splitMix64(uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &word : s)
        word = splitMix64(sm);
}

void
Rng::belowZero()
{
    panic("Rng::below(0)");
}

uint64_t
Rng::range(uint64_t lo, uint64_t hi)
{
    panic_if(lo > hi, "Rng::range with lo {} > hi {}", lo, hi);
    return lo + below(hi - lo + 1);
}

uint64_t
Rng::geometric(double p)
{
    panic_if(p <= 0.0 || p > 1.0, "Rng::geometric with p = {}", p);
    if (p >= 1.0)
        return 0;
    double u = uniform();
    // Avoid log(0).
    if (u <= 0.0)
        u = 0x1.0p-53;
    // Callers draw many times at one p; log(1 - p) is a pure function
    // of it, so the memo leaves every quotient bit-identical.
    if (p != logBaseP_) {
        logBaseP_ = p;
        logBase_ = std::log(1.0 - p);
    }
    const double q = std::log(u) / logBase_;
    // 1 - p rounds to 1 for p below ~1.1e-16: log(1 - p) is 0 and the
    // quotient -inf, which no integer can hold.
    if (!(q >= 0.0 && q < 0x1.0p64))
        return UINT64_MAX;
    return static_cast<uint64_t>(q);
}

} // namespace memsec
