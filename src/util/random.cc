#include "util/random.hh"

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

void
Rng::geometricOutOfRange(double p)
{
    panic("Rng::geometric with p = {}", p);
}

uint64_t
Rng::range(uint64_t lo, uint64_t hi)
{
    panic_if(lo > hi, "Rng::range with lo {} > hi {}", lo, hi);
    return lo + below(hi - lo + 1);
}

} // namespace memsec
