/**
 * @file
 * Small bit-manipulation helpers used by address mapping and the
 * trace generator.
 */

#ifndef MEMSEC_UTIL_BITOPS_HH
#define MEMSEC_UTIL_BITOPS_HH

#include <cstdint>

namespace memsec {

/** True iff x is a power of two (0 is not). */
constexpr bool
isPowerOf2(uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** x mod m for nonzero m. A power-of-two m masks: the same value,
 *  without the divide. */
constexpr uint64_t
modulo(uint64_t x, uint64_t m)
{
    return (m & (m - 1)) == 0 ? x & (m - 1) : x % m;
}

/** floor(log2(x)); x must be nonzero. */
constexpr unsigned
floorLog2(uint64_t x)
{
    unsigned r = 0;
    while (x >>= 1)
        ++r;
    return r;
}

/** ceil(log2(x)); x must be nonzero. */
constexpr unsigned
ceilLog2(uint64_t x)
{
    return x <= 1 ? 0 : floorLog2(x - 1) + 1;
}

/** Extract bits [lo, lo+width) of addr. */
constexpr uint64_t
bits(uint64_t addr, unsigned lo, unsigned width)
{
    return (addr >> lo) & ((width >= 64) ? ~0ull : ((1ull << width) - 1));
}

/** Insert value into bits [lo, lo+width) of addr (bits must be clear). */
constexpr uint64_t
insertBits(uint64_t addr, unsigned lo, unsigned width, uint64_t value)
{
    const uint64_t mask = (width >= 64) ? ~0ull : ((1ull << width) - 1);
    return addr | ((value & mask) << lo);
}

} // namespace memsec

#endif // MEMSEC_UTIL_BITOPS_HH
