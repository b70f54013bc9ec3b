#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cpu/trace.hh"
#include "cpu/workload.hh"
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

std::string
stateOf(const TraceGenerator &g)
{
    Serializer s;
    g.saveState(s);
    return s.take();
}

/**
 * skipRecords(n) on one generator against n next() calls on a twin:
 * the sink must see the same (addr, isStore) sequence, and the
 * checkpoint bytes afterwards must be equal.
 */
void
expectSkipMatchesNext(const WorkloadProfile &p, uint64_t seed,
                      Cycle observed, uint64_t n)
{
    SyntheticTraceGenerator skipped(p, seed);
    SyntheticTraceGenerator stepped(p, seed);
    skipped.observeCycle(observed);
    stepped.observeCycle(observed);
    uint64_t seen = 0;
    uint64_t firstMismatch = UINT64_MAX;
    skipped.skipRecords(n, [&](Addr addr, bool isStore) {
        const TraceRecord r = stepped.next();
        if ((r.addr != addr || r.isStore != isStore) &&
            firstMismatch == UINT64_MAX)
            firstMismatch = seen;
        ++seen;
    });
    const std::string what = p.name + " seed " + std::to_string(seed) +
                             " cycle " + std::to_string(observed) +
                             " n " + std::to_string(n);
    EXPECT_EQ(seen, n) << what;
    EXPECT_EQ(firstMismatch, UINT64_MAX) << what;
    // Bytes, compared without printing them.
    EXPECT_TRUE(stateOf(skipped) == stateOf(stepped)) << what;
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
    // Every registered profile, in rate mode.
    for (const std::string &name : allProfileNames())
        expectSkipMatchesNextForAllN(profileByName(name), 7);
    // Both mixes, one seed per core.
    for (const char *mix : {"mix1", "mix2"}) {
        uint64_t seed = 100;
        for (const WorkloadProfile &p : workloadMix(mix, 4))
            expectSkipMatchesNextForAllN(p, seed++);
    }
    // A modulated covert sender. Its ratio is a function of the
    // observed cycle, constant during warmup. Seed 1's 8-bit secret
    // is 00110011, so windows 0, 3 and 6 run keyed off, on and on.
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
