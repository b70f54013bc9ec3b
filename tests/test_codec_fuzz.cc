/**
 * @file
 * Seeded fuzz test for the codec round-trip: encode a random secret
 * under random code parameters, push the symbol stream through a
 * synthetic noisy channel, decode with the hard-decision codec
 * decoder, and assert the decoded BER never exceeds what the
 * channel's noise level admits.
 *
 * The bound is the analytic majority-vote BER over the R_eff windows
 * that carry each bit, each flipped independently with probability
 * Q(snr), plus a 4-sigma binomial allowance — i.e. "the decoder is
 * within noise of hard majority voting", not a loose smoke ceiling.
 * The soft-combining optimum Q(snr * sqrt(R_eff)) is printed beside
 * it on failure. Every draw is from one seeded Rng, so a failure
 * reproduces exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "leakage/codec.hh"
#include "util/random.hh"

using namespace memsec;
using namespace memsec::leakage;

namespace {

double
gauss(Rng &rng)
{
    const double u1 = 1.0 - rng.uniform();
    const double u2 = rng.uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.14159265358979323846 * u2);
}

double
qfunc(double x)
{
    return 0.5 * std::erfc(x / std::sqrt(2.0));
}

} // namespace

TEST(CodecFuzz, RoundTripBerStaysUnderTheAnalyticBound)
{
    Rng rng(0xF422E11);
    size_t totalBits = 0;
    for (int iter = 0; iter < 200; ++iter) {
        CodeParams p;
        p.scheme = (rng.next() & 1) ? CodeParams::Scheme::Manchester
                                    : CodeParams::Scheme::OnOff;
        const size_t preambles[] = {0, 4, 8, 16};
        p.preambleSymbols = preambles[rng.below(4)];
        p.repeat = 1 + static_cast<unsigned>(rng.below(4));
        const size_t nbits = 8 + rng.below(57); // 8..64
        const size_t frames = 1 + rng.below(3);
        const double snr = 1.0 + rng.uniform() * 3.0; // 1..4

        std::vector<uint8_t> secret;
        for (size_t i = 0; i < nbits; ++i)
            secret.push_back(static_cast<uint8_t>(rng.next() & 1u));
        const SymbolFrame f = encodeFrame(secret, p);

        // Noisy antipodal observations over `frames` full frames.
        std::vector<double> obs;
        std::vector<uint8_t> hard;
        for (size_t w = 0; w < frames * f.length(); ++w) {
            const double x =
                (f.symbolAt(w) ? snr : -snr) + gauss(rng);
            obs.push_back(x);
            hard.push_back(x > 0.0 ? 1 : 0);
        }

        // Every window carrying a bit is soft-combined: Manchester
        // halves, the repeat group, and the cyclic frame repetition.
        const unsigned halves =
            p.scheme == CodeParams::Scheme::Manchester ? 2u : 1u;
        const double combined = static_cast<double>(
            p.repeat * halves * frames);
        const double softBer = qfunc(snr * std::sqrt(combined));
        // Hard majority voting is weaker than soft combining; bound
        // it by the majority-vote error of independent Q(snr) flips
        // (ties decode to 0, so count >= half as potentially wrong).
        const double perWindow = qfunc(snr);
        const size_t votes = static_cast<size_t>(combined);
        double hardBer = 0.0;
        for (size_t k = (votes + 1) / 2; k <= votes; ++k) {
            // C(votes, k) p^k (1-p)^(votes-k)
            double term = 1.0;
            for (size_t j = 0; j < k; ++j)
                term *= perWindow * static_cast<double>(votes - j) /
                        static_cast<double>(j + 1);
            for (size_t j = 0; j < votes - k; ++j)
                term *= 1.0 - perWindow;
            hardBer += term;
        }

        const CodecDecodeResult out = decodeHard(hard, f);
        size_t errors = 0;
        for (size_t b = 0; b < nbits; ++b) {
            ASSERT_EQ(out.observed[b], 1u);
            errors += out.bits[b] != secret[b];
        }
        totalBits += nbits;
        const double ber = static_cast<double>(errors) /
                           static_cast<double>(nbits);
        const double tol =
            4.0 * std::sqrt(hardBer * (1.0 - hardBer) /
                                static_cast<double>(nbits) +
                            1e-6);
        EXPECT_LE(ber, hardBer + tol)
            << "iter " << iter << " scheme "
            << schemeName(p.scheme) << " preamble "
            << p.preambleSymbols << " repeat " << p.repeat
            << " frames " << frames << " snr " << snr
            << " (analytic " << hardBer << ", soft " << softBer
            << ")";
    }
    // The fuzz loop must have actually exercised the decoder.
    EXPECT_GT(totalBits, 4000u);
}

TEST(CodecFuzz, NoiselessRoundTripIsExactForAllParameters)
{
    Rng rng(0xF422E12);
    for (int iter = 0; iter < 200; ++iter) {
        CodeParams p;
        p.scheme = (rng.next() & 1) ? CodeParams::Scheme::Manchester
                                    : CodeParams::Scheme::OnOff;
        p.preambleSymbols = rng.below(20);
        p.repeat = 1 + static_cast<unsigned>(rng.below(5));
        const size_t nbits = 1 + rng.below(64);
        std::vector<uint8_t> secret;
        for (size_t i = 0; i < nbits; ++i)
            secret.push_back(static_cast<uint8_t>(rng.next() & 1u));
        const SymbolFrame f = encodeFrame(secret, p);

        // Arbitrary starting phase, whole number of frames: the
        // cyclic role map must still land every window on its bit.
        const size_t firstWindow = rng.below(3 * f.length());
        std::vector<uint8_t> decisions;
        for (size_t i = 0; i < 2 * f.length(); ++i)
            decisions.push_back(f.symbolAt(firstWindow + i));
        const CodecDecodeResult out =
            decodeHard(decisions, f, firstWindow);
        for (size_t b = 0; b < nbits; ++b) {
            ASSERT_EQ(out.observed[b], 1u) << "iter " << iter;
            EXPECT_EQ(out.bits[b], secret[b]) << "iter " << iter;
        }
    }
}
