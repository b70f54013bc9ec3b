/**
 * @file
 * Covert-channel observation extraction, decoding, and the empirical
 * leakage report.
 *
 * The attack mirrors "A Covert Queueing Channel in FCFS Schedulers"
 * ported onto the memory controller: a *sender* modulates its memory
 * intensity on/off per fixed window of DRAM-bus cycles, keyed by a
 * seed-driven secret bitstring (see cpu/trace.cc and leakage/
 * secret.hh); a *receiver* issues its own steady probe loads and
 * records each one's (arrival, completed) pair — exactly the
 * core::VictimTimeline the noninterference auditor already captures.
 *
 * This module turns that timeline into numbers:
 *  - extractObservations(): bin the receiver's per-request latencies
 *    into the sender's modulation windows (mean latency per window,
 *    aligned with the secret bit governing that window);
 *  - mutual information of (bit, window latency) with shuffle-
 *    baseline correction (leakage/mi.hh);
 *  - a threshold + majority-vote decoder reporting bit-error rate
 *    and achieved bandwidth.
 *
 * Under FR-FCFS the decoder reads the secret at near-zero BER; under
 * Fixed Service and Temporal Partitioning the receiver's timeline is
 * independent of the sender, so MI sits at the shuffle floor and BER
 * at a coin flip.
 */

#ifndef MEMSEC_LEAKAGE_CHANNEL_HH
#define MEMSEC_LEAKAGE_CHANNEL_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/noninterference.hh"
#include "leakage/codec.hh"
#include "leakage/mi.hh"
#include "sim/types.hh"

namespace memsec {
class Config;
}

namespace memsec::leakage {

/**
 * The covert-channel protocol parameters both endpoints agree on,
 * mirroring the "leak.*" config keys (docs/CONFIG.md). The sender
 * side is applied by harness/experiment.cc to every "modsender"
 * profile in the workload mix; the analysis side is read back from
 * the same config so the two cannot disagree.
 */
struct ChannelParams
{
    /** DRAM-bus cycles per transmitted bit (0 disables modulation). */
    Cycle windowCycles = 1500;
    /** Seed of the secret bitstring. */
    uint64_t secretSeed = 1;
    /** Length of the secret; windows repeat it cyclically. */
    size_t secretBits = 32;
    /** Leading windows dropped from the analysis (cold-start). */
    size_t skipWindows = 1;
    /**
     * Fraction of each window's head whose samples are dropped: the
     * receiver's guard band against intersymbol interference (queue
     * backlog from an ON window raising latencies just after the
     * sender switches off).
     */
    double guardFraction = 0.25;
    /** memRatio multiplier for the sender's OFF (bit 0) windows. */
    double offFactor = 0.02;
    /** MI estimator knobs. */
    MiOptions mi;

    /** Symbol code both endpoints transmit/expect (leak.code.*). */
    CodeParams code;
    /** Recover the symbol period from the waveform instead of
     *  trusting leak.window (needs pilots; leak.code.adapt_timing). */
    bool adaptTiming = true;
    /** Half-width of the timing sweep, as a fraction of the hint. */
    double timingSpan = 0.25;
    /** Candidate periods in the timing sweep. */
    size_t timingSteps = 41;
    /** Pick the guard band maximising pilot separation instead of
     *  trusting leak.guard (leak.code.adapt_guard). */
    bool adaptGuard = true;
    /** Pilot d' below which the trained decoder refuses to guess. */
    double minSeparation = 0.5;
    /** Quantile bins for the (symbol, LLR) MI estimate. */
    size_t llrMiBins = 4;

    /** Read every leak.* key; absent keys take their defaults. */
    static ChannelParams fromConfig(const Config &cfg);
};

/** The leak.* config keys, declared once. */
extern const std::span<const ConfigKey> leakConfigKeys;

/** One modulation window as the receiver observed it. */
struct WindowObservation
{
    size_t window = 0;       ///< window index since cycle 0
    /** Transmitted symbol governing this window (the secret bit
     *  itself under the default pass-through code). */
    uint8_t bit = 0;
    uint64_t samples = 0;    ///< receiver requests completed in it
    double meanLatency = 0.0; ///< mean (completed - arrival), cycles
};

/**
 * Bin the receiver's per-request latencies by arrival cycle into
 * modulation windows. Windows before `skipWindows` and windows in
 * which the receiver completed no request are omitted (the decoder
 * and estimator see only real observations).
 */
std::vector<WindowObservation>
extractObservations(const core::VictimTimeline &receiver,
                    const ChannelParams &params);

/** Everything the leakage meter reports for one run. */
struct LeakageReport
{
    size_t windows = 0;         ///< observed (analysed) windows
    uint64_t probeSamples = 0;  ///< receiver requests across them
    MiEstimate mi;              ///< per-window leakage in bits

    double thresholdCycles = 0.0; ///< decoder's latency threshold
    size_t rawBits = 0;     ///< windows decoded (1 bit each)
    size_t rawErrors = 0;   ///< raw decoding errors
    double rawBer = 0.0;    ///< rawErrors / rawBits
    size_t votedBits = 0;   ///< distinct secret positions voted on
    size_t votedErrors = 0; ///< majority-vote errors
    double votedBer = 0.0;  ///< votedErrors / votedBits

    /** Corrected MI per window — bits per channel use. */
    double bitsPerWindow = 0.0;
    /** bitsPerWindow scaled to wall time at the DRAM bus clock. */
    double bitsPerSecond = 0.0;

    // ---- Trained attacker (decoder.hh), populated when the code
    // ---- carries pilots (leak.code.preamble > 0). ----
    bool attackerActive = false;
    /** Symbol period the attacker actually decoded at (the timing
     *  recovery's estimate, or leak.window if it didn't converge). */
    Cycle estimatedWindowCycles = 0;
    double timingScore = 0.0; ///< matched-filter confidence [0,1]
    double guardUsed = 0.0;   ///< guard fraction the attacker chose
    size_t pilotWindows = 0;  ///< training windows across all frames
    double pilotSeparation = 0.0; ///< best single-feature pilot d'
    bool modelUsable = false; ///< pilot d' cleared min_separation
    /** Pilot-trained latency threshold (vs the blind median). */
    double trainedThresholdCycles = 0.0;
    size_t mlRawBits = 0, mlRawErrors = 0;
    double mlRawBer = 0.0; ///< per-window LLR-sign symbol BER
    size_t mlVotedBits = 0, mlVotedErrors = 0;
    double mlVotedBer = 0.0; ///< soft-vote secret-bit BER
    /** Shuffle-corrected MI of (symbol, LLR) — the attacker's
     *  realised per-window information. */
    MiEstimate llrMi;
    double codeRate = 0.0;        ///< payload bits per window
    double payloadFraction = 1.0; ///< non-pilot windows per frame
    /** Best per-window information over both meters:
     *  max(mi.corrected, llrMi.corrected). */
    double attackerBitsPerWindow = 0.0;
    /** attackerBitsPerWindow through payload windows only, scaled to
     *  wall time at the DRAM bus clock (pilot overhead charged). */
    double attackerBitsPerSecond = 0.0;

    /** Human-readable one-line summary. */
    std::string toString() const;
};

/**
 * Run the full meter over a receiver timeline: extract windows,
 * estimate MI against the reconstructed secret, decode with a
 * median-latency threshold plus per-position majority vote.
 */
LeakageReport analyzeLeakage(const core::VictimTimeline &receiver,
                             const ChannelParams &params);

/**
 * Canonical full-precision digest (hexfloat doubles) of a report,
 * in the spirit of harness::resultDigest: byte-equality of digests
 * is bit-equality of every metric. Pinned by the fig_leakage golden
 * test.
 */
std::string leakageDigest(const LeakageReport &r);

/** DRAM bus frequency used to convert windows to wall time. */
constexpr double kBusHz = 800e6; // DDR3-1600

} // namespace memsec::leakage

#endif // MEMSEC_LEAKAGE_CHANNEL_HH
