#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cpu/trace.hh"
#include "cpu/workload.hh"
#include "leakage/secret.hh"
#include "util/bitops.hh"
#include "util/random.hh"
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

/**
 * The synthetic generator as it was before its ratios were resolved
 * in the constructor: every record re-walks the profile's chain
 * (modulated window, else phase machine, then scale and clamp). The
 * draws, the phase machine and pickLine() are copied as they were.
 */
class ProfileChain
{
  public:
    ProfileChain(const WorkloadProfile &p, uint64_t seed)
        : p_(p), rng_(seed ^ 0xABCD1234FEED5678ull)
    {
        if (p.modWindowCycles > 0)
            secret_ = p.modSymbols.empty()
                          ? leakage::secretBits(p.modSecretSeed,
                                                p.modSecretBits)
                          : p.modSymbols;
        for (unsigned s = 0; s < std::max(1u, p.numStreams); ++s)
            streamPos_.push_back(rng_.below(p.footprintLines));
    }

    void observeCycle(Cycle now) { memCycle_ = now; }

    TraceRecord next()
    {
        double ratio = p_.memRatio;
        if (p_.modWindowCycles > 0) {
            const size_t w =
                static_cast<size_t>(memCycle_ / p_.modWindowCycles);
            if (secret_[w % secret_.size()] == 0)
                ratio *= p_.modOffFactor;
            ratio = std::min(0.95, std::max(1e-6, ratio));
        } else if (p_.phaseLength > 0) {
            if (phaseLeft_ == 0) {
                busyPhase_ = !busyPhase_;
                phaseLeft_ = 1 + rng_.geometric(
                                 1.0 / static_cast<double>(p_.phaseLength));
            }
            --phaseLeft_;
            ratio *= busyPhase_ ? p_.phaseHighFactor : p_.phaseLowFactor;
            ratio = std::min(0.95, std::max(1e-6, ratio));
        }
        TraceRecord rec;
        rec.gap = static_cast<uint32_t>(
            std::min<uint64_t>(rng_.geometric(ratio), 1u << 20));
        rec.isStore = rng_.chance(p_.storeFraction);
        rec.addr = pickLine();
        return rec;
    }

  private:
    Addr pickLine()
    {
        if (rng_.chance(p_.reuseFraction))
            return recent_[rng_.below(recent_.size())];
        uint64_t line;
        if (rng_.chance(p_.streamFraction)) {
            const size_t s = streamRr_++ % streamPos_.size();
            streamPos_[s] =
                (streamPos_[s] + p_.strideLines) % p_.footprintLines;
            line = streamPos_[s];
        } else {
            line = rng_.below(p_.footprintLines);
        }
        recent_[recentIdx_++ % recent_.size()] = line * kLineBytes;
        return line * kLineBytes;
    }

    WorkloadProfile p_;
    Rng rng_;
    std::vector<uint8_t> secret_;
    std::vector<uint64_t> streamPos_;
    unsigned streamRr_ = 0;
    std::array<Addr, 64> recent_{};
    size_t recentIdx_ = 0;
    bool busyPhase_ = true;
    uint64_t phaseLeft_ = 0;
    Cycle memCycle_ = 0;
};

/** 100k records of next() against the chain, record by record. A
 *  nonzero `cycleStep` advances the observed cycle by that much
 *  every 64 records, as a core's ticks would. */
void
expectNextMatchesChain(const WorkloadProfile &p, uint64_t seed,
                       Cycle firstCycle = 0, Cycle cycleStep = 0)
{
    SyntheticTraceGenerator gen(p, seed);
    ProfileChain chain(p, seed);
    Cycle now = firstCycle;
    for (uint64_t i = 0; i < 100000; ++i) {
        if (i % 64 == 0) {
            gen.observeCycle(now);
            chain.observeCycle(now);
            now += cycleStep;
        }
        const TraceRecord got = gen.next();
        const TraceRecord want = chain.next();
        if (got.gap != want.gap || got.isStore != want.isStore ||
            got.addr != want.addr) {
            ADD_FAILURE() << p.name << " seed " << seed << " from cycle "
                          << firstCycle << ": record " << i
                          << " differs: gap " << got.gap << " vs "
                          << want.gap << ", store " << got.isStore
                          << " vs " << want.isStore << ", addr "
                          << got.addr << " vs " << want.addr;
            return;
        }
    }
}

} // namespace

TEST(Trace, NextMatchesTheProfileChain)
{
    // Phased: registered profiles, whose busy and quiet ratios are
    // inside the clamp, and one whose busy ratio clamps at 0.95 and
    // whose quiet ratio clamps at 1e-6.
    for (const char *name : {"mcf", "libquantum", "xalancbmk", "milc"}) {
        const WorkloadProfile p = profileByName(name);
        ASSERT_GT(p.phaseLength, 0u) << name;
        expectNextMatchesChain(p, 3);
    }
    WorkloadProfile clamped = simpleProfile();
    clamped.memRatio = 0.7;
    clamped.phaseLength = 300;
    clamped.phaseLowFactor = 1e-7;
    expectNextMatchesChain(clamped, 9);
    // The modulated sender, keyed by the observed cycle: windows
    // short enough that the feed crosses many of them, long enough
    // that some hold for thousands of records, and a start inside
    // a later window.
    WorkloadProfile sender = profileByName("modsender");
    sender.modSecretBits = 8;
    for (const uint64_t window : {uint64_t{50}, uint64_t{700},
                                  uint64_t{20000}}) {
        sender.modWindowCycles = window;
        expectNextMatchesChain(sender, 11, 0, 3);
        expectNextMatchesChain(sender, 11, 5 * window + 1, 7);
    }
    // Plain profiles: no phases, at memRatio below 1 and at 1, where
    // geometric(1) draws nothing.
    WorkloadProfile plain = simpleProfile();
    plain.phaseLength = 0;
    expectNextMatchesChain(plain, 5);
    plain.memRatio = 1.0;
    plain.reuseFraction = 0.5;
    expectNextMatchesChain(plain, 13);
}

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
