#include <gtest/gtest.h>

#include <string>

#include "cache/cache.hh"
#include "util/random.hh"
#include "util/serialize.hh"

using namespace memsec;
using namespace memsec::cache;

namespace {

std::string
hexOf(const std::string &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (unsigned char b : bytes) {
        out += digits[b >> 4];
        out += digits[b & 0xF];
    }
    return out;
}

std::string
stateOf(const Cache &c)
{
    Serializer s;
    c.saveState(s);
    return s.take();
}

} // namespace

TEST(Cache, MissThenFillThenHit)
{
    Cache c(64 * 1024, 8);
    EXPECT_FALSE(c.access(0x1000, false).hit);
    c.fill(0x1000, false);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_EQ(c.hits().value(), 1u);
    EXPECT_EQ(c.misses().value(), 1u);
}

TEST(Cache, GeometryDerived)
{
    Cache c(64 * 1024, 8);
    EXPECT_EQ(c.numSets(), 128u); // 1024 lines / 8 ways
    EXPECT_EQ(c.ways(), 8u);
}

TEST(Cache, LruEvictsOldest)
{
    Cache c(8 * kLineBytes, 8); // one set, 8 ways
    for (Addr i = 0; i < 8; ++i)
        c.fill(i * kLineBytes, false);
    // Touch line 0 so line 1 is LRU.
    c.access(0, false);
    const FillResult fr = c.fill(8 * kLineBytes, false);
    EXPECT_FALSE(fr.evictedDirty);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(1 * kLineBytes));
}

TEST(Cache, DirtyEvictionYieldsWritebackAddress)
{
    Cache c(8 * kLineBytes, 8);
    for (Addr i = 0; i < 8; ++i)
        c.fill(i * kLineBytes, false);
    c.access(2 * kLineBytes, true); // dirty line 2
    // Evict down to line 2 (touch everything else first).
    for (Addr i = 0; i < 8; ++i) {
        if (i != 2)
            c.access(i * kLineBytes, false);
    }
    const FillResult fr = c.fill(100 * kLineBytes, false);
    EXPECT_TRUE(fr.evictedDirty);
    EXPECT_EQ(fr.writebackAddr, 2 * kLineBytes);
}

TEST(Cache, StoreMarksDirty)
{
    Cache c(8 * kLineBytes, 8);
    c.fill(0, false);
    c.access(0, true);
    for (Addr i = 1; i < 8; ++i)
        c.fill(i * kLineBytes, false);
    const FillResult fr = c.fill(9 * kLineBytes, false);
    EXPECT_TRUE(fr.evictedDirty);
    EXPECT_EQ(fr.writebackAddr, 0u);
}

TEST(Cache, FillDirtyFlag)
{
    Cache c(8 * kLineBytes, 8);
    c.fill(0, true);
    for (Addr i = 1; i < 8; ++i)
        c.fill(i * kLineBytes, false);
    EXPECT_TRUE(c.fill(9 * kLineBytes, false).evictedDirty);
}

TEST(Cache, DoubleFillMergesDirty)
{
    Cache c(8 * kLineBytes, 8);
    c.fill(0, false);
    const FillResult fr = c.fill(0, true); // already present
    EXPECT_FALSE(fr.evictedDirty);
    for (Addr i = 1; i < 8; ++i)
        c.fill(i * kLineBytes, false);
    EXPECT_TRUE(c.fill(9 * kLineBytes, false).evictedDirty);
}

TEST(Cache, PrefetchedFlagConsumedOnFirstHit)
{
    Cache c(8 * kLineBytes, 8);
    c.fill(0, false, true);
    const AccessResult first = c.access(0, false);
    EXPECT_TRUE(first.hit);
    EXPECT_TRUE(first.prefetchHit);
    const AccessResult second = c.access(0, false);
    EXPECT_TRUE(second.hit);
    EXPECT_FALSE(second.prefetchHit);
}

TEST(Cache, MarkDirtyOnResidentLine)
{
    Cache c(8 * kLineBytes, 8);
    c.fill(0, false);
    c.markDirty(0);
    for (Addr i = 1; i < 8; ++i)
        c.fill(i * kLineBytes, false);
    EXPECT_TRUE(c.fill(9 * kLineBytes, false).evictedDirty);
}

TEST(Cache, SetIndexingSeparatesSets)
{
    Cache c(64 * 1024, 8); // 128 sets
    // Same tag bits, different sets: both resident.
    c.fill(0, false);
    c.fill(kLineBytes, false);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(kLineBytes));
}

TEST(Cache, InvalidGeometryFatal)
{
    EXPECT_EXIT(Cache(100, 8), ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(Cache(64 * 1024, 0), ::testing::ExitedWithCode(1), "");
}

TEST(Cache, SaveStateBytesPinned)
{
    // The checkpoint format is independent of the in-memory layout:
    // per line (set-major, way-minor) tag u64, valid, dirty,
    // prefetched bools, LRU stamp u64; then the stamp clock, hits and
    // misses. All little-endian.
    Cache c(2 * kLineBytes, 1); // two sets, one way
    c.fill(2 * kLineBytes, false, true); // set 0, tag 1, prefetched
    c.fill(1 * kLineBytes, true);        // set 1, tag 0, dirty
    EXPECT_TRUE(c.access(1 * kLineBytes, false).hit);
    EXPECT_FALSE(c.access(0, false).hit);
    const std::string expected =
        "0500000000000000" "6361636865"        // section "cache"
        "0200000000000000"                     // set count
        "0100000000000000" "01" "00" "01"      // set 0: tag 1, V, P
        "0100000000000000"                     //   stamp 1
        "0000000000000000" "01" "01" "00"      // set 1: tag 0, V, D
        "0300000000000000"                     //   stamp 3
        "0300000000000000"                     // stamp clock
        "0100000000000000"                     // hits
        "0100000000000000";                    // misses
    EXPECT_EQ(hexOf(stateOf(c)), expected);
}

TEST(Cache, HighAddressKeepsFlagsThroughRoundTrip)
{
    // The largest line address has the widest tag the cache can
    // hold; its flags must survive a checkpoint round trip intact.
    const Addr hi = ~Addr{0} / kLineBytes * kLineBytes;
    const Addr setStride = 128 * kLineBytes; // 128 sets
    Cache c(64 * 1024, 8);
    c.fill(hi, true, true);
    c.fill(hi - setStride, false);
    Cache r(64 * 1024, 8);
    const std::string saved = stateOf(c);
    Deserializer d(saved);
    r.restoreState(d);
    EXPECT_TRUE(d.atEnd());
    EXPECT_EQ(stateOf(r), stateOf(c));

    const AccessResult a = r.access(hi, false);
    EXPECT_TRUE(a.hit);
    EXPECT_TRUE(a.prefetchHit);
    EXPECT_FALSE(r.access(hi - setStride, false).prefetchHit);
    // Age `hi` out of its set: it leaves dirty, at its own address;
    // its clean neighbour leaves without a writeback.
    r.access(hi - setStride, false);
    for (Addr k = 2; k <= 7; ++k)
        EXPECT_FALSE(r.fill(hi - k * setStride, false).evictedDirty);
    const FillResult first = r.fill(hi - 8 * setStride, false);
    EXPECT_TRUE(first.evictedDirty);
    EXPECT_EQ(first.writebackAddr, hi);
    EXPECT_FALSE(r.fill(hi - 9 * setStride, false).evictedDirty);
}

TEST(Cache, RestoreRejectsTagWithFlagBits)
{
    Cache c(2 * kLineBytes, 1);
    std::string bytes = stateOf(c);
    bytes[13 + 8 + 7] = static_cast<char>(0x80); // set 0 tag, top byte
    Cache r(2 * kLineBytes, 1);
    Deserializer d(bytes);
    EXPECT_THROW(r.restoreState(d), SerializeError);
}

TEST(Cache, CopyEvictsLikeOriginal)
{
    // The warmup memo hands out copies of a warm cache: a copy must
    // be a deep, independent replica that answers and evicts exactly
    // as the original does from then on.
    Cache orig(16 * 1024, 4); // 64 sets
    Rng warm(7);
    for (int i = 0; i < 4000; ++i) {
        const Addr a = warm.below(1024) * kLineBytes;
        if (!orig.access(a, warm.chance(0.3)).hit)
            orig.fill(a, warm.chance(0.3), warm.chance(0.1));
    }
    Cache copy = orig;
    EXPECT_EQ(stateOf(copy), stateOf(orig));

    Rng ops(11);
    for (int i = 0; i < 4000; ++i) {
        const Addr a = ops.below(2048) * kLineBytes;
        const bool store = ops.chance(0.3);
        const AccessResult ao = orig.access(a, store);
        const AccessResult ac = copy.access(a, store);
        ASSERT_EQ(ao.hit, ac.hit) << i;
        ASSERT_EQ(ao.prefetchHit, ac.prefetchHit) << i;
        if (ao.hit)
            continue;
        const bool dirty = ops.chance(0.3);
        const bool pf = ops.chance(0.1);
        const FillResult fo = orig.fill(a, dirty, pf);
        const FillResult fc = copy.fill(a, dirty, pf);
        ASSERT_EQ(fo.evictedDirty, fc.evictedDirty) << i;
        ASSERT_EQ(fo.writebackAddr, fc.writebackAddr) << i;
    }
    EXPECT_EQ(stateOf(copy), stateOf(orig));
    // Independent storage: touching the copy leaves the original be.
    copy.fill(4096 * kLineBytes, true);
    EXPECT_NE(stateOf(copy), stateOf(orig));
}

TEST(Cache, AccessOrFillMatchesAccessThenFill)
{
    // The fused warmup lookup against the two-call sequence it
    // replaces, on a small cache so sets overflow: dirty victims,
    // prefetched lines consumed by a hit, and stores to resident
    // lines all occur. Bytes (tags, flags, LRU stamps) and the hit
    // and miss counters must agree after every operation. The LLC is
    // set-major (each set's tags, then its stamps), indexed by the
    // way count, so every associativity from direct-mapped to 16
    // ways runs.
    for (unsigned ways : {1u, 2u, 4u, 8u, 16u}) {
        SCOPED_TRACE(std::to_string(ways) + " ways");
        Cache fused(8 * 1024, ways); // 128 lines
        Cache split(8 * 1024, ways);
        Rng ops(17);
        for (int i = 0; i < 20000; ++i) {
            const Addr a = ops.below(512) * kLineBytes;
            const bool store = ops.chance(0.3);
            if (ops.chance(0.1)) {
                // Prefetched fills (and markDirty) come from the timed
                // core; they interleave with warmup-style lookups here.
                const bool dirty = ops.chance(0.2);
                fused.fill(a, dirty, true);
                split.fill(a, dirty, true);
            } else if (ops.chance(0.05)) {
                fused.markDirty(a);
                split.markDirty(a);
            } else {
                fused.accessOrFill(a, store);
                if (!split.access(a, store).hit)
                    split.fill(a, store);
            }
            ASSERT_EQ(stateOf(fused), stateOf(split)) << i;
        }
        EXPECT_EQ(fused.hits().value(), split.hits().value());
        EXPECT_EQ(fused.misses().value(), split.misses().value());
        EXPECT_GT(fused.hits().value(), 0u);
        EXPECT_GT(fused.misses().value(), 0u);
    }
}
