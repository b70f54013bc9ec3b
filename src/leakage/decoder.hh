/**
 * @file
 * Near-capacity decoding for the covert queueing channel: a trained
 * maximum-likelihood symbol decoder and matched-filter symbol-timing
 * recovery — the receiver-side upgrade over channel.hh's blind
 * median-threshold decode.
 *
 * The receiver sees, per symbol window, a small feature vector of
 * its own service process:
 *
 *   - count:  probe requests completed in the window (the sender's
 *             ON state displaces the receiver, so its throughput
 *             drops — the strongest feature under bank partitioning,
 *             where latency barely moves but bus slots still vanish);
 *   - mean:   mean latency of the window's guarded samples;
 *   - tail:   90th-percentile latency (queueing excursions).
 *
 * **Training.** The frame's preamble pilots (codec.hh) have known
 * polarity, so the receiver fits per-symbol Gaussian class stats
 * (mean/variance per feature) on pilot windows only — never on the
 * secret. The fitted model replaces every blind estimate the old
 * decoder needed: the decision threshold (the LLR's zero crossing),
 * the guard band (chosen to maximise pilot separation), and the
 * symbol period (matched filter below).
 *
 * **Decoding.** Each payload window gets a log-likelihood ratio
 * log P(features | 1) - log P(features | 0) summed over the naive-
 * Bayes features. Hard symbol decisions are the LLR sign; soft
 * majority voting sums the LLR of every window carrying the same
 * payload bit (repeat groups within a frame, and every cyclic frame
 * repetition), so confident windows outvote marginal ones. If the
 * pilots separate by less than `minSeparation` (d', in pooled
 * standard deviations) the channel is declared flat and the decoder
 * refuses to guess: all-zero decisions, BER pinned at the secret's
 * ones-fraction — a coin flip for a balanced secret, never a lucky
 * streak. That is exactly the degenerate behaviour a noninterfering
 * scheduler must force.
 *
 * **Timing.** estimateSymbolTiming() sweeps candidate window periods
 * around a hint and matched-filters the per-window observation
 * series against the frame's +/-1 symbol template; the true period
 * maximises the normalised correlation. A mis-specified config
 * (leak.window off by up to the sweep span) is recovered from the
 * waveform itself.
 *
 * Everything here is a pure function of its inputs; the only
 * randomness is the seeded Rng inside the MI estimator options.
 */

#ifndef MEMSEC_LEAKAGE_DECODER_HH
#define MEMSEC_LEAKAGE_DECODER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "leakage/codec.hh"
#include "leakage/mi.hh"
#include "sim/types.hh"

namespace memsec::core {
struct VictimTimeline;
}

namespace memsec::leakage {

/** Per-window receiver features, aligned with the transmitted frame. */
struct WindowFeature
{
    size_t window = 0;    ///< absolute window index
    uint8_t symbol = 0;   ///< transmitted symbol (ground truth)
    SymbolRole role;      ///< pilot / payload-bit mapping
    double count = 0.0;   ///< probe completions in the full window
    bool hasLatency = false; ///< any samples past the guard band
    double meanLatency = 0.0;
    double tailLatency = 0.0; ///< 90th-percentile latency
};

/**
 * Bin a receiver timeline into per-window features. Unlike the
 * legacy extractObservations(), empty windows are *kept* (count 0 is
 * itself a symbol observation); only the first `skipWindows` windows
 * and the truncated final window are dropped. The count feature uses
 * the full window; latency features use samples past the guard.
 */
std::vector<WindowFeature>
extractFeatures(const core::VictimTimeline &receiver,
                const SymbolFrame &frame, Cycle windowCycles,
                double guardFraction, size_t skipWindows);

/** Gaussian class-conditional observation model, one per symbol. */
struct SymbolModel
{
    static constexpr size_t kFeatures = 3; // count, mean, tail
    double mean[2][kFeatures] = {};
    double var[2][kFeatures] = {};
    size_t trained[2] = {0, 0}; ///< pilot windows per class
    /** Classes with latency stats in both polarities. */
    bool latencyValid = false;
    /** Best single-feature d' = |mu1-mu0| / pooled sigma. */
    double separation = 0.0;
    /** Midpoint of the latency class means: the trained threshold
     *  that replaces the blind median (reporting/diagnostics). */
    double thresholdCycles = 0.0;

    bool usable(double minSeparation) const
    {
        return trained[0] >= 2 && trained[1] >= 2 &&
               separation >= minSeparation;
    }
};

/** Fit the model on the pilot windows of `features`. */
SymbolModel trainSymbolModel(const std::vector<WindowFeature> &features);

/**
 * Naive-Bayes log-likelihood ratio log P(f|1) - log P(f|0) for one
 * window under `model`. Returns 0 for a model that was never
 * trained on both classes.
 */
double symbolLlr(const WindowFeature &f, const SymbolModel &model);

/** Everything the trained ML decoder reports for one run. */
struct MlDecodeResult
{
    size_t pilotWindows = 0;
    size_t payloadWindows = 0;
    bool modelUsable = false;
    double separation = 0.0;

    /** Per-window hard symbol decisions vs the transmitted symbol. */
    size_t rawBits = 0, rawErrors = 0;
    double rawBer = 0.0;
    /** Per-position soft (LLR-sum) vote across all repetitions. */
    size_t votedBits = 0, votedErrors = 0;
    double votedBer = 0.0;

    /** Transmitted symbol and LLR per payload window, aligned — the
     *  decoder's soft-decision channel record. */
    std::vector<uint8_t> symbols;
    std::vector<double> llrs;
    /** Shuffle-corrected MI of (symbol, LLR): the per-window
     *  capacity this decoder's statistic actually realises. */
    MiEstimate llrMi;
};

/**
 * Run the trained decoder over extracted features: train on pilots,
 * LLR-decode payload windows, soft-vote per payload bit against
 * `secret`, and estimate the (symbol, LLR) mutual information with
 * `llrMiOpts`. An unusable model (pilot separation < minSeparation,
 * or no pilots at all) decodes all-zero as documented above.
 */
MlDecodeResult mlDecode(const std::vector<WindowFeature> &features,
                        const SymbolFrame &frame,
                        const std::vector<uint8_t> &secret,
                        const MiOptions &llrMiOpts,
                        double minSeparation);

/** One adaptive-timing estimate. */
struct TimingEstimate
{
    Cycle windowCycles = 0; ///< best candidate period
    double score = 0.0;     ///< normalised |correlation| in [0,1]
    bool converged = false; ///< score cleared the confidence floor
};

/**
 * Recover the symbol period by matched filter: sweep `steps`
 * candidate periods across hint * [1-span, 1+span]; for each, bin
 * the timeline into windows, build the per-window mean-latency
 * series, and correlate it (mean-removed, normalised) against the
 * frame's +/-1 symbol template. The true period aligns every window
 * with its symbol and maximises the correlation; a flat (leak-free)
 * timeline correlates with nothing and reports converged = false,
 * in which case callers should keep the hint.
 */
TimingEstimate
estimateSymbolTiming(const core::VictimTimeline &receiver,
                     const SymbolFrame &frame, Cycle hint, double span,
                     size_t steps, size_t skipWindows);

/**
 * Normalised matched-filter correlation between an observation
 * series and the +/-1 template of `symbols`: |corr| in [0,1] after
 * mean removal. Series shorter than 2 or with zero variance on
 * either side score 0.
 */
double matchedFilterCorrelation(const std::vector<double> &obs,
                                const std::vector<uint8_t> &symbols);

} // namespace memsec::leakage

#endif // MEMSEC_LEAKAGE_DECODER_HH
