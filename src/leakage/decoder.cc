#include "leakage/decoder.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/noninterference.hh"
#include "util/logging.hh"

namespace memsec::leakage {

namespace {

/**
 * Variance floors keep a degenerate class (zero observed variance —
 * exactly what a noninterfering scheduler produces) from turning
 * the Gaussian log-likelihood into an infinity: counts are integers,
 * so a quarter-count floor is below any real signal; latencies are
 * in cycles, floored well under one cycle.
 */
constexpr double kCountVarFloor = 0.25;
constexpr double kLatencyVarFloor = 0.25;

/** Matched-filter confidence below which timing recovery reports
 *  non-convergence (a flat channel correlates with nothing). */
constexpr double kTimingConfidence = 0.35;

double
gaussianLogLikelihood(double x, double mean, double var)
{
    return -0.5 * std::log(var) -
           (x - mean) * (x - mean) / (2.0 * var);
}

} // namespace

std::vector<WindowFeature>
extractFeatures(const core::VictimTimeline &receiver,
                const SymbolFrame &frame, Cycle windowCycles,
                double guardFraction, size_t skipWindows)
{
    panic_if(windowCycles == 0, "feature extraction needs a window");
    panic_if(guardFraction < 0.0 || guardFraction >= 1.0,
             "guard fraction must be in [0,1), got {}", guardFraction);
    const Cycle guard = static_cast<Cycle>(
        guardFraction * static_cast<double>(windowCycles));

    size_t maxWindow = 0;
    for (const auto &ev : receiver.service)
        maxWindow = std::max(
            maxWindow,
            static_cast<size_t>(ev.arrival / windowCycles));
    std::vector<double> count(maxWindow + 1, 0.0);
    std::vector<std::vector<double>> lat(maxWindow + 1);
    for (const auto &ev : receiver.service) {
        const size_t w =
            static_cast<size_t>(ev.arrival / windowCycles);
        count[w] += 1.0; // throughput sees the whole window
        if (ev.arrival % windowCycles < guard)
            continue; // latency features honour the guard band
        lat[w].push_back(
            static_cast<double>(ev.completed - ev.arrival));
    }

    std::vector<WindowFeature> out;
    // The truncated final window is dropped, empty windows are kept:
    // zero completions is a throughput observation, not a gap.
    for (size_t w = skipWindows; w + 1 <= maxWindow; ++w) {
        WindowFeature f;
        f.window = w;
        f.symbol = frame.symbolAt(w);
        f.role = frame.roleOf(w);
        f.count = count[w];
        if (!lat[w].empty()) {
            f.hasLatency = true;
            auto &v = lat[w];
            std::sort(v.begin(), v.end());
            double sum = 0.0;
            for (const double x : v)
                sum += x;
            f.meanLatency = sum / static_cast<double>(v.size());
            f.tailLatency =
                v[static_cast<size_t>(0.9 *
                                      static_cast<double>(v.size() - 1))];
        }
        out.push_back(f);
    }
    return out;
}

SymbolModel
trainSymbolModel(const std::vector<WindowFeature> &features)
{
    SymbolModel m;
    // Welford-free two-pass fit: pilot counts are small.
    double sum[2][SymbolModel::kFeatures] = {};
    size_t n[2] = {0, 0};
    size_t nLat[2] = {0, 0};
    for (const auto &f : features) {
        if (!f.role.pilot)
            continue;
        const int c = f.symbol ? 1 : 0;
        ++n[c];
        sum[c][0] += f.count;
        if (f.hasLatency) {
            ++nLat[c];
            sum[c][1] += f.meanLatency;
            sum[c][2] += f.tailLatency;
        }
    }
    for (int c = 0; c < 2; ++c) {
        m.trained[c] = n[c];
        if (n[c] > 0)
            m.mean[c][0] = sum[c][0] / static_cast<double>(n[c]);
        if (nLat[c] > 0) {
            m.mean[c][1] = sum[c][1] / static_cast<double>(nLat[c]);
            m.mean[c][2] = sum[c][2] / static_cast<double>(nLat[c]);
        }
    }
    m.latencyValid = nLat[0] >= 2 && nLat[1] >= 2;
    double ss[2][SymbolModel::kFeatures] = {};
    for (const auto &f : features) {
        if (!f.role.pilot)
            continue;
        const int c = f.symbol ? 1 : 0;
        const double dc = f.count - m.mean[c][0];
        ss[c][0] += dc * dc;
        if (f.hasLatency) {
            const double dm = f.meanLatency - m.mean[c][1];
            const double dt = f.tailLatency - m.mean[c][2];
            ss[c][1] += dm * dm;
            ss[c][2] += dt * dt;
        }
    }
    for (int c = 0; c < 2; ++c) {
        const double denomCount =
            n[c] > 1 ? static_cast<double>(n[c] - 1) : 1.0;
        const double denomLat =
            nLat[c] > 1 ? static_cast<double>(nLat[c] - 1) : 1.0;
        m.var[c][0] = std::max(ss[c][0] / denomCount, kCountVarFloor);
        m.var[c][1] = std::max(ss[c][1] / denomLat, kLatencyVarFloor);
        m.var[c][2] = std::max(ss[c][2] / denomLat, kLatencyVarFloor);
    }
    // Separation: the best single-feature d'. This is the statistic
    // the usable() gate compares against leak.code.min_separation.
    for (size_t j = 0; j < SymbolModel::kFeatures; ++j) {
        if (j > 0 && !m.latencyValid)
            break;
        if (n[0] < 2 || n[1] < 2)
            break;
        const double pooled =
            std::sqrt(0.5 * (m.var[0][j] + m.var[1][j]));
        const double d =
            std::abs(m.mean[1][j] - m.mean[0][j]) / pooled;
        m.separation = std::max(m.separation, d);
    }
    m.thresholdCycles = 0.5 * (m.mean[0][1] + m.mean[1][1]);
    return m;
}

double
symbolLlr(const WindowFeature &f, const SymbolModel &model)
{
    if (model.trained[0] < 2 || model.trained[1] < 2)
        return 0.0;
    double llr =
        gaussianLogLikelihood(f.count, model.mean[1][0],
                              model.var[1][0]) -
        gaussianLogLikelihood(f.count, model.mean[0][0],
                              model.var[0][0]);
    if (f.hasLatency && model.latencyValid) {
        llr += gaussianLogLikelihood(f.meanLatency, model.mean[1][1],
                                     model.var[1][1]) -
               gaussianLogLikelihood(f.meanLatency, model.mean[0][1],
                                     model.var[0][1]);
        llr += gaussianLogLikelihood(f.tailLatency, model.mean[1][2],
                                     model.var[1][2]) -
               gaussianLogLikelihood(f.tailLatency, model.mean[0][2],
                                     model.var[0][2]);
    }
    return llr;
}

MlDecodeResult
mlDecode(const std::vector<WindowFeature> &features,
         const SymbolFrame &frame, const std::vector<uint8_t> &secret,
         const MiOptions &llrMiOpts, double minSeparation)
{
    panic_if(secret.size() != frame.payloadBits,
             "secret/frame mismatch ({} vs {} bits)", secret.size(),
             frame.payloadBits);
    MlDecodeResult r;
    const SymbolModel model = trainSymbolModel(features);
    r.separation = model.separation;
    r.modelUsable = model.usable(minSeparation);

    std::vector<double> votes(frame.payloadBits, 0.0);
    std::vector<uint8_t> observed(frame.payloadBits, 0);
    for (const auto &f : features) {
        if (f.role.pilot) {
            ++r.pilotWindows;
            continue;
        }
        ++r.payloadWindows;
        // An unusable model refuses to guess: LLR pinned to zero,
        // every decision ties, and ties decode to 0 — the coin-flip
        // BER a flat channel must produce, never a lucky streak.
        const double llr = r.modelUsable ? symbolLlr(f, model) : 0.0;
        const uint8_t decided = llr > 0.0 ? 1 : 0;
        ++r.rawBits;
        r.rawErrors += decided != f.symbol;
        r.symbols.push_back(f.symbol);
        r.llrs.push_back(llr);
        votes[f.role.bitIndex] += f.role.inverted ? -llr : llr;
        observed[f.role.bitIndex] = 1;
    }
    r.rawBer = r.rawBits ? static_cast<double>(r.rawErrors) /
                               static_cast<double>(r.rawBits)
                         : 0.0;
    for (size_t b = 0; b < frame.payloadBits; ++b) {
        if (!observed[b])
            continue;
        ++r.votedBits;
        const uint8_t decided = votes[b] > 0.0 ? 1 : 0;
        r.votedErrors += decided != secret[b];
    }
    r.votedBer = r.votedBits ? static_cast<double>(r.votedErrors) /
                                   static_cast<double>(r.votedBits)
                             : 0.0;
    r.llrMi = mutualInformationBits(r.symbols, r.llrs, llrMiOpts);
    return r;
}

double
matchedFilterCorrelation(const std::vector<double> &obs,
                         const std::vector<uint8_t> &symbols)
{
    panic_if(obs.size() != symbols.size(),
             "matched filter needs aligned series ({} vs {})",
             obs.size(), symbols.size());
    const size_t n = obs.size();
    if (n < 2)
        return 0.0;
    double obsMean = 0.0, tmplMean = 0.0;
    for (size_t i = 0; i < n; ++i) {
        obsMean += obs[i];
        tmplMean += symbols[i] ? 1.0 : -1.0;
    }
    obsMean /= static_cast<double>(n);
    tmplMean /= static_cast<double>(n);
    double cross = 0.0, obsSs = 0.0, tmplSs = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double x = obs[i] - obsMean;
        const double t = (symbols[i] ? 1.0 : -1.0) - tmplMean;
        cross += x * t;
        obsSs += x * x;
        tmplSs += t * t;
    }
    if (obsSs <= 0.0 || tmplSs <= 0.0)
        return 0.0;
    return std::abs(cross) / std::sqrt(obsSs * tmplSs);
}

TimingEstimate
estimateSymbolTiming(const core::VictimTimeline &receiver,
                     const SymbolFrame &frame, Cycle hint, double span,
                     size_t steps, size_t skipWindows)
{
    panic_if(hint == 0, "timing estimation needs a nonzero hint");
    panic_if(span <= 0.0 || span >= 1.0,
             "timing span must be in (0,1), got {}", span);
    panic_if(steps < 2, "timing estimation needs at least 2 steps");

    TimingEstimate best;
    best.windowCycles = hint;
    Cycle lastCandidate = 0;
    for (size_t s = 0; s < steps; ++s) {
        const double frac =
            static_cast<double>(s) / static_cast<double>(steps - 1);
        const auto candidate = static_cast<Cycle>(
            static_cast<double>(hint) *
            (1.0 - span + 2.0 * span * frac));
        if (candidate == 0 || candidate == lastCandidate)
            continue;
        lastCandidate = candidate;

        // Per-window mean-latency series at this candidate period,
        // empty windows neutralised at the series mean so they pull
        // the correlation toward neither symbol.
        size_t maxWindow = 0;
        for (const auto &ev : receiver.service)
            maxWindow = std::max(
                maxWindow,
                static_cast<size_t>(ev.arrival / candidate));
        std::vector<double> sum(maxWindow + 1, 0.0);
        std::vector<uint64_t> cnt(maxWindow + 1, 0);
        for (const auto &ev : receiver.service) {
            const size_t w =
                static_cast<size_t>(ev.arrival / candidate);
            sum[w] += static_cast<double>(ev.completed - ev.arrival);
            ++cnt[w];
        }
        std::vector<double> obs;
        std::vector<uint8_t> symbols;
        double total = 0.0;
        uint64_t totalCnt = 0;
        for (size_t w = 0; w <= maxWindow; ++w) {
            total += sum[w];
            totalCnt += cnt[w];
        }
        const double neutral =
            totalCnt ? total / static_cast<double>(totalCnt) : 0.0;
        for (size_t w = skipWindows; w + 1 <= maxWindow; ++w) {
            obs.push_back(cnt[w]
                              ? sum[w] / static_cast<double>(cnt[w])
                              : neutral);
            symbols.push_back(frame.symbolAt(w));
        }
        const double score = matchedFilterCorrelation(obs, symbols);
        if (score > best.score) {
            best.score = score;
            best.windowCycles = candidate;
        }
    }
    best.converged = best.score >= kTimingConfidence;
    return best;
}

} // namespace memsec::leakage
