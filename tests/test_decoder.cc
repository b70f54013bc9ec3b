/**
 * @file
 * Unit tests for the near-capacity attacker (src/leakage/codec.hh +
 * decoder.hh): frame encoding and role mapping, the matched-filter
 * correlation behind timing recovery, the trained ML decoder against
 * the blind median-threshold decoder on synthetic channels, and
 * adaptive symbol-timing recovery from mis-specified periods.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/noninterference.hh"
#include "leakage/channel.hh"
#include "leakage/codec.hh"
#include "leakage/decoder.hh"
#include "leakage/secret.hh"
#include "util/random.hh"

using namespace memsec;
using namespace memsec::leakage;

namespace {

std::vector<uint8_t>
randomSecret(Rng &rng, size_t n)
{
    std::vector<uint8_t> s;
    for (size_t i = 0; i < n; ++i)
        s.push_back(static_cast<uint8_t>(rng.next() & 1u));
    return s;
}

} // namespace

// -- codec ---------------------------------------------------------

TEST(Codec, DefaultCodeIsPassThrough)
{
    // No preamble, repeat 1, on-off: the frame *is* the secret, so
    // legacy configurations transmit byte-identical traffic.
    const auto secret = secretBits(0xC0FFEE, 32);
    const SymbolFrame f = encodeFrame(secret, CodeParams{});
    EXPECT_EQ(f.symbols, secret);
    for (size_t w = 0; w < 3 * f.length(); ++w) {
        EXPECT_EQ(f.symbolAt(w), secret[w % secret.size()]);
        const SymbolRole role = f.roleOf(w);
        EXPECT_FALSE(role.pilot);
        EXPECT_EQ(role.bitIndex, w % secret.size());
        EXPECT_FALSE(role.inverted);
    }
}

TEST(Codec, PreambleIsAlternatingPilots)
{
    CodeParams p;
    p.preambleSymbols = 5;
    const SymbolFrame f = encodeFrame({1, 0, 1}, p);
    ASSERT_EQ(f.length(), 8u);
    const std::vector<uint8_t> want = {1, 0, 1, 0, 1, 1, 0, 1};
    EXPECT_EQ(f.symbols, want);
    for (size_t i = 0; i < 5; ++i)
        EXPECT_TRUE(f.roleOf(i).pilot);
    for (size_t i = 5; i < 8; ++i) {
        EXPECT_FALSE(f.roleOf(i).pilot);
        EXPECT_EQ(f.roleOf(i).bitIndex, i - 5);
    }
}

TEST(Codec, ManchesterAndRepetitionExpandEachBit)
{
    CodeParams p;
    p.scheme = CodeParams::Scheme::Manchester;
    p.repeat = 2;
    const SymbolFrame f = encodeFrame({1, 0}, p);
    // Per bit: b b (1-b) (1-b).
    const std::vector<uint8_t> want = {1, 1, 0, 0, 0, 0, 1, 1};
    EXPECT_EQ(f.symbols, want);
    EXPECT_EQ(f.roleOf(0).bitIndex, 0u);
    EXPECT_FALSE(f.roleOf(1).inverted);
    EXPECT_TRUE(f.roleOf(2).inverted);
    EXPECT_TRUE(f.roleOf(3).inverted);
    EXPECT_EQ(f.roleOf(4).bitIndex, 1u);
    EXPECT_DOUBLE_EQ(p.codeRate(2), 2.0 / 8.0);
}

TEST(Codec, HardDecodeRoundTripsCleanDecisions)
{
    Rng rng(0xC0DEC);
    for (int iter = 0; iter < 10; ++iter) {
        CodeParams p;
        p.scheme = (rng.next() & 1) ? CodeParams::Scheme::Manchester
                                    : CodeParams::Scheme::OnOff;
        p.preambleSymbols = rng.below(6);
        p.repeat = 1 + static_cast<unsigned>(rng.below(3));
        const auto secret = randomSecret(rng, 8 + rng.below(16));
        const SymbolFrame f = encodeFrame(secret, p);
        // Two full noiseless frames of per-window decisions.
        std::vector<uint8_t> decisions;
        for (size_t w = 0; w < 2 * f.length(); ++w)
            decisions.push_back(f.symbolAt(w));
        const CodecDecodeResult out = decodeHard(decisions, f);
        ASSERT_EQ(out.bits.size(), secret.size());
        for (size_t b = 0; b < secret.size(); ++b) {
            EXPECT_EQ(out.observed[b], 1u);
            EXPECT_EQ(out.bits[b], secret[b]) << "iter " << iter;
        }
    }
}

// -- matched-filter correlation -----------------------------------

TEST(MatchedFilter, CorrelationFindsTheTemplate)
{
    const std::vector<uint8_t> symbols = {1, 0, 1, 1, 0, 0, 1, 0};
    std::vector<double> aligned, inverted, flat;
    for (const uint8_t s : symbols) {
        aligned.push_back(s ? 7.0 : 3.0);
        inverted.push_back(s ? 3.0 : 7.0);
        flat.push_back(5.0);
    }
    EXPECT_NEAR(matchedFilterCorrelation(aligned, symbols), 1.0, 1e-9);
    // Polarity is folded into |corr|: an inverted channel is still a
    // perfectly correlated channel.
    EXPECT_NEAR(matchedFilterCorrelation(inverted, symbols), 1.0,
                1e-9);
    EXPECT_EQ(matchedFilterCorrelation(flat, symbols), 0.0);
}

// -- trained ML decoder vs the blind median threshold --------------

namespace {

/**
 * Synthesize a receiver timeline for a channel whose per-window
 * service pattern is `emit(symbol, window, rng)` returning latency
 * samples; windows are 100 cycles, samples spread across the window.
 */
template <typename Emit>
core::VictimTimeline
synthTimeline(const SymbolFrame &frame, size_t windows, Emit emit,
              uint64_t seed)
{
    core::VictimTimeline tl;
    Rng rng(seed);
    for (size_t w = 0; w < windows; ++w) {
        const auto lat = emit(frame.symbolAt(w), rng);
        for (size_t i = 0; i < lat.size(); ++i) {
            const Cycle arrival =
                w * 100 +
                (i * 100) / static_cast<Cycle>(lat.size());
            tl.recordService(arrival, arrival + lat[i]);
        }
    }
    return tl;
}

ChannelParams
synthParams()
{
    ChannelParams p;
    p.windowCycles = 100;
    p.secretSeed = 0xC0FFF2; // balanced 16/32 secret
    p.secretBits = 32;
    p.skipWindows = 1;
    p.code.preambleSymbols = 9; // prime 41-window frame
    p.adaptTiming = false;      // period is exact here
    return p;
}

} // namespace

TEST(MlDecoder, BeatsMedianThresholdOnEverySyntheticChannel)
{
    const ChannelParams params = synthParams();
    const SymbolFrame frame = encodeFrame(
        secretBits(params.secretSeed, params.secretBits), params.code);
    const size_t windows = 6 * frame.length();

    struct Channel
    {
        const char *name;
        std::vector<double> (*emit)(uint8_t, Rng &);
        bool medianShouldFail;
    };
    const std::vector<Channel> channels = {
        // Mean shift: both decoders should read it.
        {"mean-shift",
         [](uint8_t s, Rng &rng) {
             std::vector<double> v;
             for (int i = 0; i < 6; ++i)
                 v.push_back((s ? 60.0 : 30.0) +
                             static_cast<double>(rng.below(10)));
             return v;
         },
         false},
        // Throughput-only: latency is flat, the symbol shows only in
        // how many probe requests complete. The median-threshold
        // decoder is blind to it; the count feature reads it.
        {"count-only",
         [](uint8_t s, Rng &rng) {
             std::vector<double> v;
             for (int i = 0; i < (s ? 3 : 9); ++i)
                 v.push_back(40.0 +
                             static_cast<double>(rng.below(4)));
             return v;
         },
         true},
        // Dispersion-only: identical window means, the symbol lives
        // in the spread — the p90 tail feature reads it.
        {"variance-only",
         [](uint8_t s, Rng &rng) {
             std::vector<double> v;
             for (int i = 0; i < 8; ++i) {
                 const double sign = (i % 2) ? 1.0 : -1.0;
                 v.push_back(100.0 +
                             sign * (s ? 40.0 : 4.0) +
                             static_cast<double>(rng.below(3)));
             }
             return v;
         },
         true},
    };

    for (const auto &ch : channels) {
        const auto tl =
            synthTimeline(frame, windows, ch.emit, 0xFEED);
        const LeakageReport rep = analyzeLeakage(tl, params);
        ASSERT_TRUE(rep.attackerActive);
        EXPECT_TRUE(rep.modelUsable) << ch.name;
        // The trained decoder never loses to the blind one, and wins
        // outright on the channels the median cannot see.
        EXPECT_LE(rep.mlVotedBer, rep.votedBer) << ch.name;
        EXPECT_LT(rep.mlVotedBer, 0.05) << ch.name;
        if (ch.medianShouldFail) {
            EXPECT_GT(rep.votedBer, 0.25) << ch.name;
        }
    }
}

TEST(MlDecoder, RefusesToGuessOnAFlatChannel)
{
    const ChannelParams params = synthParams();
    const SymbolFrame frame = encodeFrame(
        secretBits(params.secretSeed, params.secretBits), params.code);
    const auto tl = synthTimeline(
        frame, 6 * frame.length(),
        [](uint8_t, Rng &rng) {
            std::vector<double> v;
            for (int i = 0; i < 6; ++i)
                v.push_back(50.0 + static_cast<double>(rng.below(8)));
            return v;
        },
        0xF1A7);
    const LeakageReport rep = analyzeLeakage(tl, params);
    ASSERT_TRUE(rep.attackerActive);
    EXPECT_FALSE(rep.modelUsable);
    // All-zero fallback decode + balanced secret = BER exactly 1/2.
    EXPECT_DOUBLE_EQ(rep.mlVotedBer, 0.5);
    EXPECT_LT(rep.llrMi.correctedBits, 0.02);
}

// -- adaptive symbol timing ----------------------------------------

TEST(AdaptiveTiming, ConvergesFromMisspecifiedPeriods)
{
    // True period 100 cycles; hints off by -20%..+20% must all lock
    // onto it (the sweep spans hint * [0.75, 1.25]).
    ChannelParams params = synthParams();
    const SymbolFrame frame = encodeFrame(
        secretBits(params.secretSeed, params.secretBits), params.code);
    const auto tl = synthTimeline(
        frame, 8 * frame.length(),
        [](uint8_t s, Rng &rng) {
            std::vector<double> v;
            for (int i = 0; i < 6; ++i)
                v.push_back((s ? 70.0 : 30.0) +
                            static_cast<double>(rng.below(6)));
            return v;
        },
        0x71ED);
    for (const Cycle hint : {80u, 90u, 100u, 120u}) {
        const TimingEstimate est = estimateSymbolTiming(
            tl, frame, hint, params.timingSpan, params.timingSteps,
            params.skipWindows);
        EXPECT_TRUE(est.converged) << "hint " << hint;
        EXPECT_NEAR(static_cast<double>(est.windowCycles), 100.0, 2.0)
            << "hint " << hint;
    }
}

TEST(AdaptiveTiming, FlatChannelDoesNotConverge)
{
    ChannelParams params = synthParams();
    const SymbolFrame frame = encodeFrame(
        secretBits(params.secretSeed, params.secretBits), params.code);
    const auto tl = synthTimeline(
        frame, 8 * frame.length(),
        [](uint8_t, Rng &rng) {
            std::vector<double> v;
            for (int i = 0; i < 6; ++i)
                v.push_back(50.0 + static_cast<double>(rng.below(8)));
            return v;
        },
        0xF1A8);
    const TimingEstimate est = estimateSymbolTiming(
        tl, frame, 100, params.timingSpan, params.timingSteps,
        params.skipWindows);
    EXPECT_FALSE(est.converged);
}

TEST(AdaptiveTiming, EndToEndRecoversFromWrongConfigWindow)
{
    // Full pipeline: config says 90 cycles, the sender really used
    // 100. With adapt_timing the attacker decodes anyway.
    ChannelParams params = synthParams();
    const SymbolFrame frame = encodeFrame(
        secretBits(params.secretSeed, params.secretBits), params.code);
    const auto tl = synthTimeline(
        frame, 8 * frame.length(),
        [](uint8_t s, Rng &rng) {
            std::vector<double> v;
            for (int i = 0; i < 6; ++i)
                v.push_back((s ? 70.0 : 30.0) +
                            static_cast<double>(rng.below(6)));
            return v;
        },
        0x71EE);
    params.windowCycles = 90; // mis-specified
    params.adaptTiming = true;
    const LeakageReport rep = analyzeLeakage(tl, params);
    ASSERT_TRUE(rep.attackerActive);
    EXPECT_NEAR(static_cast<double>(rep.estimatedWindowCycles), 100.0,
                2.0);
    EXPECT_LT(rep.mlVotedBer, 0.05);
}
