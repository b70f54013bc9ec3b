/**
 * @file
 * Deterministic pseudo-random number generator.
 *
 * All stochastic behaviour in the simulator (synthetic traces, dummy
 * read addresses, ...) draws from explicitly seeded Xoshiro256**
 * instances so that every experiment is exactly reproducible.
 */

#ifndef MEMSEC_UTIL_RANDOM_HH
#define MEMSEC_UTIL_RANDOM_HH

#include <cstdint>

#include "util/bitops.hh"

namespace memsec {

/**
 * Xoshiro256** PRNG. Small, fast, and good enough statistical quality
 * for workload synthesis; never use std::rand (global state) in the
 * simulator.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via SplitMix64 expansion. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    uint64_t next()
    {
        const uint64_t result = rotl(s[1] * 5, 7) * 9;
        const uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound); bound must be nonzero. Modulo
     *  bias is negligible for the bounds workload synthesis uses,
     *  far below 2^64. */
    uint64_t below(uint64_t bound)
    {
        if (bound == 0)
            belowZero();
        return modulo(next(), bound);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    uint64_t range(uint64_t lo, uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniform() { return (next() >> 11) * 0x1.0p-53; }

    /** Bernoulli draw with probability p of true; p <= 0 and p >= 1
     *  draw nothing. */
    bool chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /** Geometric-ish draw: number of failures before success(p),
     *  UINT64_MAX when p is too small for 1 - p to differ from 1. */
    uint64_t geometric(double p);

    /** Checkpoint walk: the raw 256-bit state. */
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar)
    {
        ar.io(self.s);
    }

  private:
    /** below(0)'s panic, out of line to keep below() small. */
    [[noreturn]] static void belowZero();

    static uint64_t rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s[4];
    /** geometric()'s memo: logBase_ == log(1 - logBaseP_). Derived,
     *  so not part of the snapshot state. 1.0 is never memoised
     *  (geometric(1) returns before it). */
    double logBaseP_ = 1.0;
    double logBase_ = 0.0;
};

} // namespace memsec

#endif // MEMSEC_UTIL_RANDOM_HH
