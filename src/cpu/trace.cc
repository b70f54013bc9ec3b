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
    // next()'s ratios: keyed ones are scaled, then clamped, once.
    const auto clamped = [](double r) {
        return std::min(0.95, std::max(1e-6, r));
    };
    if (spec_.modulated) {
        ratio_ = {clamped(profile.memRatio * profile.modOffFactor),
                  clamped(profile.memRatio)};
    } else if (spec_.phaseLength > 0) {
        ratio_ = {clamped(profile.memRatio * profile.phaseLowFactor),
                  clamped(profile.memRatio * profile.phaseHighFactor)};
    } else {
        ratio_ = {profile.memRatio, profile.memRatio};
    }
    // Start streams at seed-dependent offsets: co-scheduled copies of
    // one benchmark run different phases, so their streams must not
    // collide bank-for-bank.
    for (unsigned s = 0; s < spec_.numStreams; ++s)
        streamPos_.push_back(rng_.below(spec_.footprintLines));
}

double
SyntheticTraceGenerator::windowRatio() const
{
    // Key intensity on the secret bit governing the current
    // modulation window. The window index comes from the owning
    // core's observeCycle() feed, so the waveform is locked to
    // simulated time rather than to record count — queueing delays
    // cannot stretch a bit.
    const size_t w =
        static_cast<size_t>(memCycle_ / profile_.modWindowCycles);
    return ratio_[modSecret_[w % modSecret_.size()] != 0];
}

void
SyntheticTraceGenerator::skipRecords(uint64_t n, cache::Cache &llc)
{
    // The ratio chain, resolved once: only the phase machine still
    // steps per record, and whether the gap draws its one uniform()
    // is fixed for the call.
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
