#include "leakage/channel.hh"

#include <algorithm>
#include <sstream>

#include "leakage/decoder.hh"
#include "leakage/secret.hh"
#include "sim/config.hh"
#include "util/logging.hh"

namespace memsec::leakage {

using enum ConfigType;

constexpr ConfigChoice<MiBinning> kBinnings[] = {
    {"width", MiBinning::Width}, {"quantile", MiBinning::Quantile}};

// leak.window, leak.secret_bits and leak.guard are checked here, before
// a run starts; extractObservations() re-checks them for direct callers.
constexpr ConfigKey kLeakKeys[] = {
    {"leak.window", Uint, "1500", nullptr, 1},
    {"leak.secret_seed", Uint, "1"},
    {"leak.secret_bits", Uint, "32", nullptr, 1},
    {"leak.skip_windows", Uint, "1"},
    {"leak.guard", Double, "0.25", nullptr, 0, 1, true},
    {"leak.off_factor", Double, "0.02"},
    {"leak.mi_bins", Uint, "8"},
    {"leak.mi_binning", String, "width", choiceNames<kBinnings>},
    {"leak.mi_shuffles", Uint, "64"},
    {"leak.shuffle_seed", Uint, "0xB1A5F100D5EED"},
    {"leak.code.scheme", String, "onoff", choiceNames<kCodeSchemes>},
    {"leak.code.preamble", Uint, "0"},
    {"leak.code.repeat", Uint, "1", nullptr, 1},
    {"leak.code.adapt_timing", Bool, "true"},
    {"leak.code.timing_span", Double, "0.25"},
    {"leak.code.timing_steps", Uint, "41"},
    {"leak.code.adapt_guard", Bool, "true"},
    {"leak.code.min_separation", Double, "0.5"},
    {"leak.code.mi_bins", Uint, "4"},
};
const std::span<const ConfigKey> leakConfigKeys = kLeakKeys;

ChannelParams
ChannelParams::fromConfig(const Config &config)
{
    const Config cfg = withDefaults(config, kLeakKeys);
    ChannelParams p;
    p.windowCycles = cfg.getUint("leak.window");
    p.secretSeed = cfg.getUint("leak.secret_seed");
    p.secretBits = static_cast<size_t>(cfg.getUint("leak.secret_bits"));
    p.skipWindows = static_cast<size_t>(cfg.getUint("leak.skip_windows"));
    p.guardFraction = cfg.getDouble("leak.guard");
    p.offFactor = cfg.getDouble("leak.off_factor");
    p.mi.bins = static_cast<size_t>(cfg.getUint("leak.mi_bins"));
    p.mi.shuffles = static_cast<size_t>(cfg.getUint("leak.mi_shuffles"));
    p.mi.shuffleSeed = cfg.getUint("leak.shuffle_seed");
    p.mi.binning = choiceValue(kBinnings, "leak.mi_binning",
                               cfg.getString("leak.mi_binning"));
    p.code = CodeParams::fromConfig(cfg);
    p.adaptTiming = cfg.getBool("leak.code.adapt_timing");
    p.timingSpan = cfg.getDouble("leak.code.timing_span");
    p.timingSteps =
        static_cast<size_t>(cfg.getUint("leak.code.timing_steps"));
    p.adaptGuard = cfg.getBool("leak.code.adapt_guard");
    p.minSeparation = cfg.getDouble("leak.code.min_separation");
    p.llrMiBins = static_cast<size_t>(cfg.getUint("leak.code.mi_bins"));
    return p;
}

std::vector<WindowObservation>
extractObservations(const core::VictimTimeline &receiver,
                    const ChannelParams &params)
{
    panic_if(params.windowCycles == 0,
             "observation extraction needs a nonzero window");
    panic_if(params.secretBits == 0,
             "observation extraction needs a nonzero secret");
    panic_if(params.guardFraction < 0.0 || params.guardFraction >= 1.0,
             "guard fraction must be in [0,1), got {}",
             params.guardFraction);
    const Cycle guard = static_cast<Cycle>(
        params.guardFraction *
        static_cast<double>(params.windowCycles));
    // Label each window with its *transmitted symbol*. Under the
    // default pass-through code the frame is the secret itself, so
    // legacy configurations are bit-identical to the pre-codec meter.
    const SymbolFrame frame = encodeFrame(
        secretBits(params.secretSeed, params.secretBits), params.code);

    // Service events are recorded in completion order; bin them by
    // arrival cycle. Accumulate per-window sums first (windows are
    // contiguous but some may be empty).
    std::vector<WindowObservation> out;
    size_t maxWindow = 0;
    for (const auto &ev : receiver.service)
        maxWindow = std::max(
            maxWindow,
            static_cast<size_t>(ev.arrival / params.windowCycles));
    std::vector<uint64_t> count(maxWindow + 1, 0);
    std::vector<double> sum(maxWindow + 1, 0.0);
    for (const auto &ev : receiver.service) {
        if (ev.arrival % params.windowCycles < guard)
            continue; // guard band against intersymbol interference
        const size_t w =
            static_cast<size_t>(ev.arrival / params.windowCycles);
        ++count[w];
        sum[w] += static_cast<double>(ev.completed - ev.arrival);
    }
    // The final window is almost surely truncated by the end of the
    // run; drop it so every analysed window covers the same span.
    for (size_t w = params.skipWindows; w + 1 <= maxWindow; ++w) {
        if (count[w] == 0)
            continue;
        WindowObservation obs;
        obs.window = w;
        obs.bit = frame.symbolAt(w);
        obs.samples = count[w];
        obs.meanLatency = sum[w] / static_cast<double>(count[w]);
        out.push_back(obs);
    }
    return out;
}

std::string
LeakageReport::toString() const
{
    std::ostringstream os;
    os << windows << " windows (" << probeSamples << " probes): MI "
       << mi.pluginBits << " bits (floor " << mi.shuffleMeanBits
       << ", corrected " << mi.correctedBits << "), raw BER " << rawBer
       << ", voted BER " << votedBer << ", " << bitsPerSecond
       << " bit/s";
    if (attackerActive) {
        os << "; attacker: window " << estimatedWindowCycles
           << " (score " << timingScore << "), guard " << guardUsed
           << ", pilot d' " << pilotSeparation
           << (modelUsable ? "" : " (unusable)") << ", ML voted BER "
           << mlVotedBer << ", LLR MI " << llrMi.correctedBits << ", "
           << attackerBitsPerSecond << " bit/s";
    }
    return os.str();
}

LeakageReport
analyzeLeakage(const core::VictimTimeline &receiver,
               const ChannelParams &params)
{
    LeakageReport rep;
    const auto obs = extractObservations(receiver, params);
    rep.windows = obs.size();
    for (const auto &o : obs)
        rep.probeSamples += o.samples;
    if (obs.empty())
        return rep;

    std::vector<uint8_t> bits;
    std::vector<double> lat;
    bits.reserve(obs.size());
    lat.reserve(obs.size());
    for (const auto &o : obs) {
        bits.push_back(o.bit);
        lat.push_back(o.meanLatency);
    }
    rep.mi = mutualInformationBits(bits, lat, params.mi);
    rep.bitsPerWindow = rep.mi.correctedBits;
    rep.bitsPerSecond =
        rep.bitsPerWindow * kBusHz /
        static_cast<double>(params.windowCycles);

    // Decoder: a blind receiver cannot calibrate on ground truth, so
    // the threshold is the median window latency — with a balanced
    // secret, ON windows sit above it and OFF windows below. A
    // leak-free scheduler gives (near-)identical window means, so the
    // comparison degenerates and the decode is uninformed: BER ~ the
    // fraction of 1-bits, i.e. a coin flip for a balanced secret.
    std::vector<double> sorted = lat;
    std::sort(sorted.begin(), sorted.end());
    const size_t n = sorted.size();
    rep.thresholdCycles =
        n % 2 == 1 ? sorted[n / 2]
                   : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);

    // Raw decode: one symbol decision per window, then a per-secret-
    // position majority vote with the code's pilot windows skipped
    // and Manchester halves de-inverted. Under the default pass-
    // through code this is exactly the historic window % secretBits
    // vote.
    const auto secret =
        secretBits(params.secretSeed, params.secretBits);
    const SymbolFrame frame = encodeFrame(secret, params.code);
    std::vector<int> votes(params.secretBits, 0); // +1 for '1', -1 '0'
    std::vector<uint8_t> voted(params.secretBits, 0);
    for (const auto &o : obs) {
        const uint8_t decoded =
            o.meanLatency > rep.thresholdCycles ? 1 : 0;
        ++rep.rawBits;
        rep.rawErrors += decoded != o.bit;
        const SymbolRole role = frame.roleOf(o.window);
        if (role.pilot)
            continue;
        const uint8_t bit = role.inverted ? 1 - decoded : decoded;
        votes[role.bitIndex] += bit ? 1 : -1;
        voted[role.bitIndex] = 1; // position observed at least once
    }
    rep.rawBer = static_cast<double>(rep.rawErrors) /
                 static_cast<double>(rep.rawBits);

    // Majority vote across the secret's repetitions. Ties decode to
    // '0', matching the degenerate all-equal case above.
    for (size_t pos = 0; pos < params.secretBits; ++pos) {
        if (!voted[pos])
            continue;
        ++rep.votedBits;
        const uint8_t decoded = votes[pos] > 0 ? 1 : 0;
        rep.votedErrors += decoded != secret[pos];
    }
    rep.votedBer =
        rep.votedBits
            ? static_cast<double>(rep.votedErrors) /
                  static_cast<double>(rep.votedBits)
            : 0.0;

    // ---- Trained attacker: pilots enable timing recovery, guard
    // ---- selection, model training, and ML decoding. ----
    if (params.code.preambleSymbols == 0)
        return rep;
    rep.attackerActive = true;
    rep.codeRate = params.code.codeRate(params.secretBits);
    rep.payloadFraction =
        1.0 - static_cast<double>(frame.pilotsPerFrame()) /
                  static_cast<double>(frame.length());

    // Symbol timing: trust the waveform over the config when the
    // matched filter is confident; keep the hint otherwise (a leak-
    // free channel has no waveform to lock onto).
    Cycle window = params.windowCycles;
    if (params.adaptTiming) {
        const TimingEstimate est = estimateSymbolTiming(
            receiver, frame, params.windowCycles, params.timingSpan,
            params.timingSteps, params.skipWindows);
        rep.timingScore = est.score;
        if (est.converged)
            window = est.windowCycles;
    }
    rep.estimatedWindowCycles = window;

    // Guard band: pick the candidate maximising pilot separation —
    // trained on known-polarity windows only, so this is calibration,
    // not peeking at the secret.
    std::vector<double> guards;
    if (params.adaptGuard)
        guards = {0.0, 0.125, 0.25, 0.375};
    else
        guards = {params.guardFraction};
    std::vector<WindowFeature> bestFeatures;
    double bestSeparation = -1.0;
    for (const double g : guards) {
        auto features = extractFeatures(receiver, frame, window, g,
                                        params.skipWindows);
        const SymbolModel model = trainSymbolModel(features);
        if (model.separation > bestSeparation) {
            bestSeparation = model.separation;
            rep.guardUsed = g;
            bestFeatures = std::move(features);
        }
    }

    MiOptions llrOpts = params.mi;
    llrOpts.bins = params.llrMiBins;
    llrOpts.binning = MiBinning::Quantile;
    const MlDecodeResult ml =
        mlDecode(bestFeatures, frame, secret, llrOpts,
                 params.minSeparation);
    rep.pilotWindows = ml.pilotWindows;
    rep.pilotSeparation = ml.separation;
    rep.modelUsable = ml.modelUsable;
    rep.trainedThresholdCycles =
        trainSymbolModel(bestFeatures).thresholdCycles;
    rep.mlRawBits = ml.rawBits;
    rep.mlRawErrors = ml.rawErrors;
    rep.mlRawBer = ml.rawBer;
    rep.mlVotedBits = ml.votedBits;
    rep.mlVotedErrors = ml.votedErrors;
    rep.mlVotedBer = ml.votedBer;
    rep.llrMi = ml.llrMi;
    rep.attackerBitsPerWindow =
        std::max(rep.mi.correctedBits, rep.llrMi.correctedBits);
    rep.attackerBitsPerSecond =
        rep.attackerBitsPerWindow * rep.payloadFraction * kBusHz /
        static_cast<double>(window);
    return rep;
}

std::string
leakageDigest(const LeakageReport &r)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << "windows=" << r.windows << " probes=" << r.probeSamples
       << "\n";
    os << "mi.plugin=" << r.mi.pluginBits
       << "\nmi.shuffleMean=" << r.mi.shuffleMeanBits
       << "\nmi.shuffleMax=" << r.mi.shuffleMaxBits
       << "\nmi.corrected=" << r.mi.correctedBits
       << "\nmi.samples=" << r.mi.samples << "\n";
    os << "threshold=" << r.thresholdCycles << "\n";
    os << "raw=" << r.rawErrors << "/" << r.rawBits
       << " ber=" << r.rawBer << "\n";
    os << "voted=" << r.votedErrors << "/" << r.votedBits
       << " ber=" << r.votedBer << "\n";
    os << "bitsPerWindow=" << r.bitsPerWindow
       << "\nbitsPerSecond=" << r.bitsPerSecond << "\n";
    if (r.attackerActive) {
        os << "attacker.window=" << r.estimatedWindowCycles
           << " score=" << r.timingScore << "\n";
        os << "attacker.guard=" << r.guardUsed
           << " pilots=" << r.pilotWindows
           << " separation=" << r.pilotSeparation
           << " usable=" << (r.modelUsable ? 1 : 0)
           << " threshold=" << r.trainedThresholdCycles << "\n";
        os << "attacker.mlRaw=" << r.mlRawErrors << "/" << r.mlRawBits
           << " ber=" << r.mlRawBer << "\n";
        os << "attacker.mlVoted=" << r.mlVotedErrors << "/"
           << r.mlVotedBits << " ber=" << r.mlVotedBer << "\n";
        os << "attacker.llrMi.plugin=" << r.llrMi.pluginBits
           << "\nattacker.llrMi.shuffleMean=" << r.llrMi.shuffleMeanBits
           << "\nattacker.llrMi.corrected=" << r.llrMi.correctedBits
           << "\n";
        os << "attacker.codeRate=" << r.codeRate
           << " payloadFraction=" << r.payloadFraction << "\n";
        os << "attacker.bitsPerWindow=" << r.attackerBitsPerWindow
           << "\nattacker.bitsPerSecond=" << r.attackerBitsPerSecond
           << "\n";
    }
    return os.str();
}

} // namespace memsec::leakage
