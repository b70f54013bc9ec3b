#include "cpu/arrival.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::cpu {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/** Exponential variate with rate `lam` (> 0), strictly positive. */
double
expoVariate(Rng &rng, double lam)
{
    // uniform() is in [0, 1); 1-u is in (0, 1], so the log is finite.
    const double u = rng.uniform();
    return std::max(1e-9, -std::log(1.0 - u) / lam);
}

} // namespace

ArrivalTraceGenerator::ArrivalTraceGenerator(
    const WorkloadProfile &profile, uint64_t seed)
    : profile_(profile), rng_(seed ^ 0x5EEDCAFE0A11DA7Aull)
{
    const std::string &proc = profile.trafficProcess;
    fatal_if(proc != "poisson" && proc != "mmpp",
             "traffic.process must be poisson or mmpp, got '{}'", proc);
    fatal_if(profile.trafficRate <= 0.0,
             "traffic.rate must be positive, got {}", profile.trafficRate);
    fatal_if(profile.trafficClients == 0,
             "traffic.clients must be >= 1");
    fatal_if(profile.trafficDiurnalAmp < 0.0 ||
                 profile.trafficDiurnalAmp >= 1.0,
             "traffic.diurnal_amp must be in [0,1), got {}",
             profile.trafficDiurnalAmp);
    fatal_if(profile.footprintLines == 0, "footprint must be nonzero");
    mmpp_ = proc == "mmpp";
    if (mmpp_) {
        fatal_if(profile.trafficBurstLen <= 0.0 ||
                     profile.trafficIdleLen <= 0.0,
                 "traffic.burst_len/idle_len must be positive");
        fatal_if(profile.trafficBurstFactor < 0.0 ||
                     profile.trafficIdleFactor < 0.0,
                 "traffic burst/idle factors must be >= 0");
    }

    // Poisson superposition is exact: any client population folds
    // into one aggregate exponential clock. MMPP needs real state
    // machines for burstiness, capped at kMaxMmppSources.
    const unsigned n =
        mmpp_ ? std::min(profile.trafficClients, kMaxMmppSources) : 1;
    // Normalise so traffic.rate is the long-run mean in every
    // process: the MMPP factors shape burstiness around the mean,
    // they do not scale it (the diurnal envelope already averages to
    // one over a period by construction).
    double meanFactor = 1.0;
    if (mmpp_) {
        const double pBurst =
            profile.trafficBurstLen /
            (profile.trafficBurstLen + profile.trafficIdleLen);
        meanFactor = pBurst * profile.trafficBurstFactor +
                     (1.0 - pBurst) * profile.trafficIdleFactor;
        fatal_if(meanFactor <= 0.0,
                 "traffic burst/idle factors average to zero rate");
    }
    perSourceRate_ = profile.trafficRate / 1000.0 /
                     static_cast<double>(n) / meanFactor;

    sources_.resize(n);
    for (auto &src : sources_) {
        if (mmpp_) {
            // Stationary initial state, then an exponential residue.
            const double pBurst =
                profile.trafficBurstLen /
                (profile.trafficBurstLen + profile.trafficIdleLen);
            src.burst = rng_.chance(pBurst);
            const double meanLen = src.burst ? profile.trafficBurstLen
                                             : profile.trafficIdleLen;
            src.nextToggle = 1 + static_cast<Cycle>(
                                     expoVariate(rng_, 1.0 / meanLen));
        }
        src.nextArrival = drawArrival(src, 0);
    }

    const unsigned streams = std::max(1u, profile.numStreams);
    for (unsigned s = 0; s < streams; ++s)
        streamPos_.push_back(rng_.below(profile.footprintLines));
    recent_.assign(64, 0);
}

double
ArrivalTraceGenerator::envelope(double t) const
{
    if (profile_.trafficDiurnalPeriod <= 0.0)
        return 1.0;
    return 1.0 + profile_.trafficDiurnalAmp *
                     std::sin(kTwoPi * t / profile_.trafficDiurnalPeriod);
}

double
ArrivalTraceGenerator::ratePerCycle(const Source &s) const
{
    if (!mmpp_)
        return perSourceRate_;
    return perSourceRate_ * (s.burst ? profile_.trafficBurstFactor
                                     : profile_.trafficIdleFactor);
}

void
ArrivalTraceGenerator::toggle(Source &s)
{
    s.burst = !s.burst;
    const double meanLen =
        s.burst ? profile_.trafficBurstLen : profile_.trafficIdleLen;
    s.nextToggle += 1 + static_cast<Cycle>(
                            expoVariate(rng_, 1.0 / meanLen));
}

Cycle
ArrivalTraceGenerator::drawArrival(Source &s, Cycle from)
{
    // Competing exponentials against the state toggle (memoryless
    // restart at each toggle is exact), with thinning against the
    // diurnal envelope's peak rate.
    const double ampMax = 1.0 + profile_.trafficDiurnalAmp;
    double t = static_cast<double>(from);
    for (;;) {
        const double lamMax = ratePerCycle(s) * ampMax;
        if (lamMax <= 1e-12) {
            // Dead state (factor 0): nothing arrives until the toggle.
            if (s.nextToggle == kNoCycle)
                return kNoCycle;
            t = static_cast<double>(s.nextToggle);
            toggle(s);
            continue;
        }
        t += expoVariate(rng_, lamMax);
        if (s.nextToggle != kNoCycle &&
            t >= static_cast<double>(s.nextToggle)) {
            t = static_cast<double>(s.nextToggle);
            toggle(s);
            continue;
        }
        if (profile_.trafficDiurnalPeriod > 0.0 &&
            rng_.uniform() * ampMax >= envelope(t))
            continue; // thinned candidate: keep walking from t
        const auto at = static_cast<Cycle>(std::ceil(t));
        return std::max(at, from + 1);
    }
}

Addr
ArrivalTraceGenerator::pickLine()
{
    const uint64_t fp = profile_.footprintLines;

    if (!recent_.empty() && rng_.chance(profile_.reuseFraction))
        return recent_[rng_.below(recent_.size())];

    uint64_t line;
    if (rng_.chance(profile_.streamFraction)) {
        const unsigned s = streamRr_++ % streamPos_.size();
        streamPos_[s] = (streamPos_[s] + profile_.strideLines) % fp;
        line = streamPos_[s];
    } else {
        line = rng_.below(fp);
    }
    recent_[recentIdx_++ % recent_.size()] = line * kLineBytes;
    return line * kLineBytes;
}

TraceRecord
ArrivalTraceGenerator::next()
{
    // Earliest due arrival across sources (index breaks ties).
    size_t best = sources_.size();
    Cycle bestAt = kNoCycle;
    for (size_t i = 0; i < sources_.size(); ++i) {
        const Cycle at = sources_[i].nextArrival;
        if (at != kNoCycle && at <= memCycle_ && at < bestAt) {
            best = i;
            bestAt = at;
        }
    }

    TraceRecord rec;
    if (best < sources_.size()) {
        rec.issueAt = bestAt;
        rec.gap = 0;
        rec.isStore = rng_.chance(profile_.storeFraction);
        rec.addr = pickLine();
        sources_[best].nextArrival = drawArrival(sources_[best], bestAt);
        ++arrivals_;
        return rec;
    }

    // Nothing due: filler keeps the ROB retiring so the process is
    // re-polled next cycle. The hot line stays LLC-resident after
    // its first touch, so fillers generate no memory traffic.
    rec.gap = kFillerGap;
    rec.isStore = true;
    rec.addr = 0;
    return rec;
}

template <class Self, class Ar>
void
ArrivalTraceGenerator::io(Self &self, Ar &ar)
{
    ar.section("arrival");
    ar.io(self.rng_);
    ar.sized(self.sources_, "arrival source count mismatch", [&](auto &src) {
        ar.io(src.burst, src.nextToggle, src.nextArrival);
    });
    ar.sized(self.streamPos_, "arrival stream count mismatch");
    ar.io(self.streamRr_);
    ar.sized(self.recent_, "arrival reuse-ring size mismatch");
    ar.io(self.recentIdx_, self.memCycle_, self.arrivals_);
}

void
ArrivalTraceGenerator::saveState(Serializer &s) const
{
    io(*this, s);
}

void
ArrivalTraceGenerator::restoreState(Deserializer &d)
{
    io(*this, d);
}

} // namespace memsec::cpu
