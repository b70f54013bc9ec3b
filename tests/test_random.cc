#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "util/random.hh"

using namespace memsec;

TEST(Random, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Random, BelowStaysInRange)
{
    Rng r(7);
    for (uint64_t bound : {1ull, 2ull, 10ull, 1000000007ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.below(bound), bound);
    }
}

TEST(Random, BelowZeroPanics)
{
    Rng r(7);
    EXPECT_THROW(r.below(0), std::logic_error);
}

TEST(Random, RangeInclusive)
{
    Rng r(9);
    bool sawLo = false;
    bool sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        const uint64_t v = r.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        sawLo |= v == 3;
        sawHi |= v == 6;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Random, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0.0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Random, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Random, ChanceFrequency)
{
    Rng r(17);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Random, GeometricMean)
{
    Rng r(19);
    const double p = 0.25;
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.geometric(p));
    // Mean of geometric (failures before success) is (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Random, GeometricPOneIsZero)
{
    Rng r(23);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(r.geometric(1.0), 0u);
}

TEST(Random, GeometricSaturatesWhenOneMinusPRoundsToOne)
{
    // 1 - p == 1.0 makes log(1 - p) zero and the quotient infinite;
    // the draw saturates instead of casting inf to an integer.
    Rng r(29);
    for (double p : {1e-17, 1e-300}) {
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(r.geometric(p), UINT64_MAX) << p;
    }
    // The smallest p with 1 - p < 1 still draws a finite value.
    EXPECT_LT(r.geometric(0x1.0p-53), UINT64_MAX);
}

TEST(Random, GeometricDrawsArePinned)
{
    // Values recorded before geometric() memoised log(1 - p): the memo
    // must leave every draw bit-identical, including when p alternates
    // the way the phase generator interleaves its two draws.
    Rng r(42);
    const std::pair<double, std::array<uint64_t, 4>> fixed[] = {
        {0.5, {3, 1, 0, 0}},
        {0.25, {0, 0, 1, 0}},
        {0.03, {8, 17, 12, 40}},
        {1e-6, {221863, 1135032, 340871, 130373}},
        {0.95, {0, 0, 0, 0}},
    };
    for (const auto &[p, want] : fixed) {
        for (uint64_t w : want)
            EXPECT_EQ(r.geometric(p), w) << p;
    }
    const uint64_t alternating[] = {9505, 142, 10, 2029, 14, 59, 3674, 19};
    for (int i = 0; i < 8; ++i) {
        const double p =
            i % 3 == 0 ? 1.0 / 4000.0 : 0.03 * (i % 2 ? 0.4 : 2.5);
        EXPECT_EQ(r.geometric(p), alternating[i]) << i;
    }
}

TEST(Random, BelowDrawsArePinned)
{
    // Values recorded while below() reduced every bound with `%`. A
    // power-of-two bound may mask instead, but every value, and the
    // one raw draw per call (below(1) included), must stay the same.
    Rng r(2024);
    const std::pair<uint64_t, std::array<uint64_t, 4>> fixed[] = {
        {1, {0, 0, 0, 0}},
        {2, {1, 1, 0, 0}},
        {64, {21, 36, 32, 3}},
        {1ull << 20, {145030, 466805, 335119, 141573}},
        {1ull << 63,
         {790500823250529545ull, 2817320505095676646ull,
          5719482954650854441ull, 7414169184860983331ull}},
        {3, {2, 2, 1, 0}},
        {6, {3, 3, 3, 4}},
        {8800, {5019, 7676, 6735, 7737}},
        {1000000007, {456951272, 400594098, 810945061, 493681910}},
    };
    for (const auto &[bound, want] : fixed) {
        for (uint64_t w : want)
            EXPECT_EQ(r.below(bound), w) << bound;
    }
    EXPECT_EQ(r.next(), 1052166744257669394ull);
}
