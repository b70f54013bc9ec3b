#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cache/cache.hh"
#include "cpu/trace.hh"
#include "cpu/workload.hh"
#include "util/bitops.hh"
#include "util/serialize.hh"

using namespace memsec;
using namespace memsec::cpu;

namespace {

WorkloadProfile
simpleProfile()
{
    WorkloadProfile p;
    p.name = "test";
    p.memRatio = 0.25;
    p.storeFraction = 0.4;
    p.footprintLines = 1 << 12;
    p.streamFraction = 0.5;
    p.numStreams = 2;
    p.strideLines = 1;
    p.reuseFraction = 0.0;
    return p;
}

template <class T>
std::string
stateOf(const T &x)
{
    Serializer s;
    x.saveState(s);
    return s.take();
}

/**
 * The warm kernel, skipRecords(n) into one LLC, against n next()
 * calls on a twin generator, each record looked up in a twin LLC with
 * access() and, on a miss, fill(): the checkpoint bytes of both
 * generators and both LLCs must be equal afterwards. The LLC is the
 * default per-core slice, 512 KB and 8 ways.
 */
void
expectSkipMatchesNext(const WorkloadProfile &p, uint64_t seed,
                      Cycle observed, uint64_t n)
{
    SyntheticTraceGenerator skipped(p, seed);
    SyntheticTraceGenerator stepped(p, seed);
    cache::Cache warmed(512 * 1024, 8);
    cache::Cache twin(512 * 1024, 8);
    skipped.observeCycle(observed);
    stepped.observeCycle(observed);
    skipped.skipRecords(n, warmed);
    for (uint64_t i = 0; i < n; ++i) {
        const TraceRecord r = stepped.next();
        if (!twin.access(r.addr, r.isStore).hit)
            twin.fill(r.addr, r.isStore);
    }
    const std::string what = p.name + " seed " + std::to_string(seed) +
                             " cycle " + std::to_string(observed) +
                             " n " + std::to_string(n);
    EXPECT_EQ(warmed.hits().value() + warmed.misses().value(), n) << what;
    // Bytes, compared without printing them.
    EXPECT_TRUE(stateOf(skipped) == stateOf(stepped)) << what;
    EXPECT_TRUE(stateOf(warmed) == stateOf(twin)) << what;
}

void
expectSkipMatchesNextForAllN(const WorkloadProfile &p, uint64_t seed,
                             Cycle observed = 0)
{
    // Phase lengths are geometric with mean phaseLength; ten means
    // cross several phase boundaries.
    const uint64_t phaseCrossing =
        p.phaseLength > 0 ? 10 * p.phaseLength : 15000;
    for (uint64_t n : {uint64_t{0}, uint64_t{1}, uint64_t{2},
                       phaseCrossing, uint64_t{400000}})
        expectSkipMatchesNext(p, seed, observed, n);
}

} // namespace

TEST(Trace, DeterministicForSameSeed)
{
    SyntheticTraceGenerator a(simpleProfile(), 7);
    SyntheticTraceGenerator b(simpleProfile(), 7);
    for (int i = 0; i < 500; ++i) {
        const TraceRecord ra = a.next();
        const TraceRecord rb = b.next();
        EXPECT_EQ(ra.gap, rb.gap);
        EXPECT_EQ(ra.isStore, rb.isStore);
        EXPECT_EQ(ra.addr, rb.addr);
    }
}

TEST(Trace, DifferentSeedsDiverge)
{
    SyntheticTraceGenerator a(simpleProfile(), 1);
    SyntheticTraceGenerator b(simpleProfile(), 2);
    int same = 0;
    for (int i = 0; i < 200; ++i) {
        if (a.next().addr == b.next().addr)
            ++same;
    }
    EXPECT_LT(same, 20);
}

TEST(Trace, GapMeanMatchesMemRatio)
{
    SyntheticTraceGenerator g(simpleProfile(), 3);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += g.next().gap;
    // Geometric mean (1-p)/p = 3 for memRatio 0.25.
    EXPECT_NEAR(sum / n, 3.0, 0.2);
}

TEST(Trace, StoreFractionApproximate)
{
    SyntheticTraceGenerator g(simpleProfile(), 5);
    int stores = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        stores += g.next().isStore ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(stores) / n, 0.4, 0.02);
}

TEST(Trace, AddressesWithinFootprint)
{
    const WorkloadProfile p = simpleProfile();
    SyntheticTraceGenerator g(p, 9);
    for (int i = 0; i < 5000; ++i) {
        const Addr a = g.next().addr;
        EXPECT_LT(a / kLineBytes, p.footprintLines);
        EXPECT_EQ(a % kLineBytes, 0u);
    }
}

TEST(Trace, PureStreamIsSequentialPerStream)
{
    WorkloadProfile p = simpleProfile();
    p.streamFraction = 1.0;
    p.numStreams = 1;
    p.reuseFraction = 0.0;
    SyntheticTraceGenerator g(p, 11);
    Addr prev = g.next().addr;
    for (int i = 0; i < 100; ++i) {
        const Addr cur = g.next().addr;
        const Addr expect =
            (prev / kLineBytes + 1) % p.footprintLines * kLineBytes;
        EXPECT_EQ(cur, expect);
        prev = cur;
    }
}

TEST(Trace, ReuseDrawsFromRecentLines)
{
    WorkloadProfile p = simpleProfile();
    p.reuseFraction = 1.0; // always reuse once history exists
    SyntheticTraceGenerator g(p, 13);
    // With reuse == 1 and an all-zero initial history, every address
    // is line 0 forever.
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(g.next().addr, 0u);
}

TEST(Trace, InvalidProfileFatal)
{
    WorkloadProfile p = simpleProfile();
    p.memRatio = 0.0;
    EXPECT_EXIT(SyntheticTraceGenerator(p, 1),
                ::testing::ExitedWithCode(1), "memRatio");
    WorkloadProfile p2 = simpleProfile();
    p2.footprintLines = 0;
    EXPECT_EXIT(SyntheticTraceGenerator(p2, 1),
                ::testing::ExitedWithCode(1), "footprint");
}

TEST(Trace, SkipRecordsMatchesNext)
{
    // Every registered profile, in rate mode. Among them are the
    // integer reductions that do not mask: xalancbmk's footprint and
    // a 6-stream round-robin (GemsFDTD, SP).
    EXPECT_FALSE(isPowerOf2(profileByName("xalancbmk").footprintLines));
    EXPECT_EQ(profileByName("GemsFDTD").numStreams, 6u);
    EXPECT_EQ(profileByName("SP").numStreams, 6u);
    for (const std::string &name : allProfileNames())
        expectSkipMatchesNextForAllN(profileByName(name), 7);
    // Both mixes, one seed per core.
    for (const char *mix : {"mix1", "mix2"}) {
        uint64_t seed = 100;
        for (const WorkloadProfile &p : workloadMix(mix, 4))
            expectSkipMatchesNextForAllN(p, seed++);
    }
    // A modulated covert sender. Its ratio is a function of the
    // observed cycle, which the kernel does not read: it draws the
    // gap in every window. Seed 1's 8-bit secret is 00110011, so
    // windows 0, 3 and 6 run keyed off, on and on.
    WorkloadProfile sender = profileByName("modsender");
    sender.modWindowCycles = 2000;
    sender.modSecretBits = 8;
    for (Cycle window = 0; window < 8; window += 3)
        expectSkipMatchesNextForAllN(sender, 11, window * 2000);
    // memRatio 1 with no phases: geometric(1) draws nothing, so the
    // skipped gap must not draw either.
    WorkloadProfile dense = simpleProfile();
    dense.memRatio = 1.0;
    dense.phaseLength = 0;
    dense.reuseFraction = 0.5;
    expectSkipMatchesNextForAllN(dense, 13);
}
