#include "cpu/trace.hh"

#include <algorithm>

#include "cache/cache.hh"
#include "leakage/secret.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::cpu {

// Growing WorkloadProfile trips this on the reference ABI: if the
// generator's constructor or its warm kernel reads the new field,
// resolve it into WarmSpec (and so into warmupKey()), then update the
// size.
#if defined(__x86_64__) && defined(__GLIBCXX__)
static_assert(sizeof(WorkloadProfile) == 296,
              "WorkloadProfile changed: does WarmSpec need the field?");
#endif

std::string
warmupKey(const WorkloadProfile &p, uint64_t traceSeed, uint64_t records,
          uint64_t llcBytes, unsigned llcWays)
{
    const WarmSpec w(p);
    Serializer s;
    s.io(p.name, w.storeFraction, w.reuseFraction, w.streamFraction,
         w.footprintLines, w.numStreams, w.strideLines, w.phaseLength,
         w.modulated, w.drawGap, traceSeed, records, llcBytes, llcWays);
    return s.take();
}

WarmSpec::WarmSpec(const WorkloadProfile &p)
    : storeFraction(p.storeFraction), reuseFraction(p.reuseFraction),
      streamFraction(p.streamFraction), footprintLines(p.footprintLines),
      numStreams(std::max(1u, p.numStreams)), strideLines(p.strideLines),
      phaseLength(p.modWindowCycles > 0 ? 0 : p.phaseLength),
      modulated(p.modWindowCycles > 0),
      drawGap(modulated || phaseLength > 0 || p.memRatio < 1.0)
{
}

SyntheticTraceGenerator::SyntheticTraceGenerator(
    const WorkloadProfile &profile, uint64_t seed)
    : profile_(profile), spec_(profile),
      rng_(seed ^ 0xABCD1234FEED5678ull)
{
    fatal_if(profile.memRatio <= 0.0 || profile.memRatio > 1.0,
             "memRatio must be in (0,1], got {}", profile.memRatio);
    fatal_if(profile.footprintLines == 0, "footprint must be nonzero");
    if (spec_.modulated) {
        fatal_if(profile.modOffFactor <= 0.0 ||
                     profile.modOffFactor > 1.0,
                 "modOffFactor must be in (0,1], got {}",
                 profile.modOffFactor);
        // A pre-encoded symbol frame (leak.code.*) outranks the raw
        // seed-driven secret; both drive the same keying loop below.
        modSecret_ = profile.modSymbols.empty()
                         ? leakage::secretBits(profile.modSecretSeed,
                                               profile.modSecretBits)
                         : profile.modSymbols;
    }
    // Start streams at seed-dependent offsets: co-scheduled copies of
    // one benchmark run different phases, so their streams must not
    // collide bank-for-bank.
    for (unsigned s = 0; s < spec_.numStreams; ++s)
        streamPos_.push_back(rng_.below(spec_.footprintLines));
}

Addr
SyntheticTraceGenerator::pickLine()
{
    const uint64_t fp = spec_.footprintLines;

    if (rng_.chance(spec_.reuseFraction)) {
        // Temporal reuse of a recently touched line.
        return recent_[rng_.below(kReuseRing)];
    }

    uint64_t line;
    if (rng_.chance(spec_.streamFraction)) {
        const uint64_t s = modulo(streamRr_++, streamPos_.size());
        streamPos_[s] = modulo(streamPos_[s] + spec_.strideLines, fp);
        line = streamPos_[s];
    } else {
        line = rng_.below(fp);
    }
    recent_[recentIdx_++ % kReuseRing] = line * kLineBytes;
    return line * kLineBytes;
}

void
SyntheticTraceGenerator::stepPhase()
{
    if (phaseLeft_ == 0) {
        busyPhase_ = !busyPhase_;
        phaseLeft_ = 1 + rng_.geometric(
                         1.0 / static_cast<double>(spec_.phaseLength));
    }
    --phaseLeft_;
}

double
SyntheticTraceGenerator::recordRatio()
{
    double ratio = profile_.memRatio;
    if (spec_.modulated) {
        // Covert-channel sender: key intensity on the secret bit
        // governing the current modulation window. The window index
        // comes from the owning core's observeCycle() feed, so the
        // waveform is locked to simulated time rather than to record
        // count — queueing delays cannot stretch a bit.
        const size_t w = static_cast<size_t>(
            memCycle_ / profile_.modWindowCycles);
        if (modSecret_[w % modSecret_.size()] == 0)
            ratio *= profile_.modOffFactor;
        ratio = std::min(0.95, std::max(1e-6, ratio));
    } else if (spec_.phaseLength > 0) {
        stepPhase();
        ratio *= busyPhase_ ? profile_.phaseHighFactor
                            : profile_.phaseLowFactor;
        ratio = std::min(0.95, std::max(1e-6, ratio));
    }
    return ratio;
}

TraceRecord
SyntheticTraceGenerator::next()
{
    const double ratio = recordRatio();
    TraceRecord rec;
    rec.gap = static_cast<uint32_t>(
        std::min<uint64_t>(rng_.geometric(ratio), 1u << 20));
    rec.isStore = rng_.chance(spec_.storeFraction);
    rec.addr = pickLine();
    return rec;
}

void
SyntheticTraceGenerator::skipRecords(uint64_t n, cache::Cache &llc)
{
    // recordRatio()'s chain, resolved once: only the phase machine
    // still steps per record, and whether the gap draws its one
    // uniform() is fixed for the call.
    const bool phased = spec_.phaseLength > 0;
    const bool drawGap = spec_.drawGap;
    const double storeFraction = spec_.storeFraction;
    for (uint64_t i = 0; i < n; ++i) {
        if (phased)
            stepPhase();
        if (drawGap)
            rng_.uniform();
        const bool isStore = rng_.chance(storeFraction);
        llc.accessOrFill(pickLine(), isStore);
    }
}

template <class Self, class Ar>
void
SyntheticTraceGenerator::io(Self &self, Ar &ar)
{
    ar.section("synthtrace");
    ar.io(self.rng_);
    ar.sized(self.streamPos_, "trace stream count mismatch");
    ar.io(self.streamRr_);
    ar.sized(self.recent_, "trace reuse-ring size mismatch");
    ar.io(self.recentIdx_, self.busyPhase_, self.phaseLeft_, self.memCycle_);
}

void
SyntheticTraceGenerator::saveState(Serializer &s) const
{
    io(*this, s);
}

void
SyntheticTraceGenerator::restoreState(Deserializer &d)
{
    io(*this, d);
}

} // namespace memsec::cpu
