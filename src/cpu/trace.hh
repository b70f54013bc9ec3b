/**
 * @file
 * Instruction-trace records and synthetic trace generation.
 *
 * The original evaluation replays SPEC CPU2006 / NPB regions under
 * Simics; without those inputs we synthesise per-benchmark traces
 * whose memory behaviour (intensity, spatial streams, working-set
 * size, reuse, store ratio, memory-level parallelism) is set per
 * profile. Generators are deterministic given (profile, seed).
 */

#ifndef MEMSEC_CPU_TRACE_HH
#define MEMSEC_CPU_TRACE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "util/bitops.hh"
#include "util/random.hh"

namespace memsec {
class Serializer;
class Deserializer;
} // namespace memsec

namespace memsec::cache {
class Cache;
} // namespace memsec::cache

namespace memsec::cpu {

/** One trace step: `gap` non-memory instructions, then a memory op. */
struct TraceRecord
{
    uint32_t gap = 0;
    bool isStore = false;
    Addr addr = 0;
    /**
     * Open-loop issue stamp: the DRAM-bus cycle at which the
     * arrival process scheduled this request (cpu/arrival.hh), or
     * kNoCycle for closed-loop records. Carried through the core
     * into MemRequest::issued so per-domain latency histograms
     * measure client-observed latency (queueing included) rather
     * than controller-observed latency.
     */
    Cycle issueAt = kNoCycle;
};

/** Abstract instruction/memory trace source. */
class TraceGenerator
{
  public:
    virtual ~TraceGenerator() = default;

    /** Produce the next record. Traces are infinite. */
    virtual TraceRecord next() = 0;

    /**
     * Inform the generator of the current DRAM-bus cycle. Called by
     * the owning core once per executed tick, before any next()
     * pulls of that tick; generators whose behaviour is keyed on
     * simulated time (the covert-channel sender) read the latest
     * observed cycle in next(). The default generator ignores it.
     * Ticks skipped by the idle-skip kernel never dispatch records,
     * so missing their observations cannot change any next() result
     * (proven by tests/test_fastforward_diff.cc).
     */
    virtual void observeCycle(Cycle now) { (void)now; }

    /**
     * Checkpoint the generator's mutable state (RNG streams, replay
     * position, phase machinery). Stateless generators may keep the
     * no-op defaults; stateful ones must override both so a restored
     * run replays the exact same record sequence.
     */
    virtual void saveState(Serializer &s) const { (void)s; }
    virtual void restoreState(Deserializer &d) { (void)d; }
};

/** Tunable memory behaviour of one synthetic benchmark. */
struct WorkloadProfile
{
    std::string name = "unnamed";
    /** Fraction of instructions that are memory operations. */
    double memRatio = 0.2;
    /** Fraction of memory operations that are stores. */
    double storeFraction = 0.3;
    /** Working set in cache lines. */
    uint64_t footprintLines = 1 << 17;
    /** Fraction of accesses following sequential/strided streams. */
    double streamFraction = 0.5;
    /** Number of concurrent streams. */
    unsigned numStreams = 4;
    /** Stream stride in cache lines. */
    unsigned strideLines = 1;
    /** Fraction of accesses that re-touch a recently used line
     *  (drives LLC hits / temporal locality). */
    double reuseFraction = 0.5;
    /** Maximum outstanding misses the core can sustain (MLP). */
    unsigned mshrs = 8;

    /**
     * Phase behaviour: real benchmarks alternate memory-intensive
     * and compute bursts; this is what creates both queueing
     * pressure and idle (dummy) slots under shaping. Mean phase
     * length in trace records; 0 disables phases.
     */
    uint64_t phaseLength = 0;
    /** memRatio multiplier during quiet phases. */
    double phaseLowFactor = 0.1;
    /** memRatio multiplier during busy phases. */
    double phaseHighFactor = 1.6;

    /**
     * Covert-channel sender modulation (the empirical leakage
     * meter, see docs/LEAKAGE.md). When `modWindowCycles` > 0 the
     * generator keys its memory intensity on a seed-driven secret
     * bitstring: during a window whose secret bit is 1 it runs at
     * full `memRatio`; during a 0 window the ratio is multiplied by
     * `modOffFactor`. Windows are `modWindowCycles` DRAM-bus cycles
     * long and the secret repeats cyclically. Modulation replaces
     * the phase behaviour above.
     */
    uint64_t modWindowCycles = 0;
    uint64_t modSecretSeed = 1;
    unsigned modSecretBits = 32;
    double modOffFactor = 0.02;
    /**
     * Encoded symbol frame transmitted cyclically instead of the raw
     * secret (leakage/codec.hh: preamble pilots + coded payload).
     * Empty means the seed-driven secret bits are the symbols — the
     * pre-codec sender. Populated by harness/experiment.cc from the
     * leak.code.* keys so sender and analyzer share one frame.
     */
    std::vector<uint8_t> modSymbols;

    /**
     * Non-empty: replay this trace file (see cpu/trace_file.hh)
     * instead of synthesising; the behavioural fields above are then
     * ignored except `mshrs`.
     */
    std::string tracePath;

    /**
     * Open-loop arrival process ("" or "none" keeps the closed-loop
     * synthetic generator; "poisson"/"mmpp" switch the core to an
     * ArrivalTraceGenerator, cpu/arrival.hh). Populated by
     * harness/experiment.cc from the traffic.* keys; the address-
     * behaviour fields above (footprint, streams, reuse, stores)
     * still shape what the arrivals touch.
     */
    std::string trafficProcess;
    /** Mean request rate per 1000 DRAM-bus cycles (all clients). */
    double trafficRate = 8.0;
    /** Simulated clients multiplexed onto this domain. Poisson
     *  superposes exactly (one aggregate process regardless of
     *  count); MMPP instantiates min(clients, 64) burst/idle state
     *  machines splitting the rate evenly. */
    unsigned trafficClients = 1;
    /** MMPP burst-state rate multiplier (x trafficRate). */
    double trafficBurstFactor = 8.0;
    /** MMPP idle-state rate multiplier (x trafficRate). */
    double trafficIdleFactor = 0.25;
    /** Mean MMPP burst duration in cycles (exponential). */
    double trafficBurstLen = 2000.0;
    /** Mean MMPP idle duration in cycles (exponential). */
    double trafficIdleLen = 6000.0;
    /** Diurnal intensity envelope period in cycles; 0 disables. */
    double trafficDiurnalPeriod = 0.0;
    /** Envelope amplitude in [0, 1): rate x (1 + amp sin(2pi t/T)). */
    double trafficDiurnalAmp = 0.0;
};

/**
 * What a synthetic generator's constructor and its warm kernel
 * (SyntheticTraceGenerator::skipRecords) read of a profile, resolved
 * once. The kernel reads no other profile field, so two profiles with
 * equal specs warm byte-identically from equal seeds.
 */
struct WarmSpec
{
    explicit WarmSpec(const WorkloadProfile &p);

    double storeFraction = 0.0;
    double reuseFraction = 0.0;
    double streamFraction = 0.0;
    uint64_t footprintLines = 0;
    /** At least 1: a profile's 0 streams run one. */
    unsigned numStreams = 1;
    unsigned strideLines = 1;
    /** The phase machine's mean length, 0 when it is off: no phases,
     *  or a modulated sender, whose keying replaces them. */
    uint64_t phaseLength = 0;
    /** A covert sender: modWindowCycles > 0. */
    bool modulated = false;
    /** The record's gap draws one uniform(). A modulated or phased
     *  ratio is clamped to at most 0.95, so it always does; a plain
     *  one iff memRatio < 1, as geometric(1) draws nothing. */
    bool drawGap = true;
};

/**
 * Identity of a core's functional warmup: the profile's name and its
 * WarmSpec (doubles by their IEEE-754 pattern), then the trace seed,
 * the warmup record count and the LLC geometry. That is all the
 * synthetic generator's constructor and its warm kernel read, so
 * equal keys yield byte-identical warm LLC and generator state; the
 * warmup memo (cpu/core_model.hh) relies on that. Profile fields the
 * warmup does not read are left out, so profiles that differ only
 * there share a key: covert senders at different leak.window values,
 * or a phased profile at another memRatio.
 */
std::string warmupKey(const WorkloadProfile &profile, uint64_t traceSeed,
                      uint64_t records, uint64_t llcBytes,
                      unsigned llcWays);

/**
 * Profile-driven synthetic generator. Final, and next() is inline, so
 * a core holding the concrete type compiles a record's draws into its
 * own loop with no virtual call.
 */
class SyntheticTraceGenerator final : public TraceGenerator
{
  public:
    SyntheticTraceGenerator(const WorkloadProfile &profile, uint64_t seed);

    inline TraceRecord next() override;
    void observeCycle(Cycle now) override { memCycle_ = now; }

    /**
     * Advance the stream by `n` records, looking each one's line up
     * in `llc` with Cache::accessOrFill: the functional warmup's
     * kernel. It makes the same RNG draws in the same order as `n`
     * calls of next(), so the saveState() bytes afterwards are
     * identical, and leaves `llc` as access() then fill() of each
     * record would. Only the gap is skipped: its one uniform() draw
     * is made and discarded (WarmSpec::drawGap) rather than turned
     * into a geometric value. The kernel reads the profile only
     * through the spec, and the observed cycle not at all.
     */
    void skipRecords(uint64_t n, cache::Cache &llc);

    void saveState(Serializer &s) const override;
    void restoreState(Deserializer &d) override;

    const WorkloadProfile &profile() const { return profile_; }

  private:
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar);

    /** Recently touched lines that reuse draws from. */
    static constexpr size_t kReuseRing = 64;
    static_assert(isPowerOf2(kReuseRing), "the reuse ring is masked");

    /** One record's step of the phase machine (spec_.phaseLength
     *  > 0): the one copy of that logic. */
    inline void stepPhase();
    inline Addr pickLine();
    /** The covert sender's memory-op probability: the window the
     *  observed cycle falls in keys it on or off. */
    double windowRatio() const;

    WorkloadProfile profile_;
    WarmSpec spec_;
    /**
     * The memory-op probabilities next() draws the gap with, resolved
     * once and clamped to [1e-6, 0.95] where they are keyed: index 1
     * is a phased profile's busy ratio or a sender's on-window ratio,
     * index 0 the quiet or off ratio. A plain profile's memRatio, not
     * clamped, fills both.
     */
    std::array<double, 2> ratio_{};
    Rng rng_;
    std::vector<uint64_t> streamPos_;
    unsigned streamRr_ = 0;
    std::array<Addr, kReuseRing> recent_{};
    size_t recentIdx_ = 0;
    bool busyPhase_ = true;
    uint64_t phaseLeft_ = 0;
    Cycle memCycle_ = 0;
    /** Secret bitstring when the profile modulates (else empty). */
    std::vector<uint8_t> modSecret_;
};

inline void
SyntheticTraceGenerator::stepPhase()
{
    if (phaseLeft_ == 0) {
        busyPhase_ = !busyPhase_;
        phaseLeft_ = 1 + rng_.geometric(
                         1.0 / static_cast<double>(spec_.phaseLength));
    }
    --phaseLeft_;
}

inline Addr
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

inline TraceRecord
SyntheticTraceGenerator::next()
{
    double ratio = ratio_[1];
    if (spec_.modulated) {
        ratio = windowRatio();
    } else if (spec_.phaseLength > 0) {
        stepPhase();
        ratio = ratio_[busyPhase_];
    }
    TraceRecord rec;
    rec.gap = static_cast<uint32_t>(
        std::min<uint64_t>(rng_.geometric(ratio), 1u << 20));
    rec.isStore = rng_.chance(spec_.storeFraction);
    rec.addr = pickLine();
    return rec;
}

} // namespace memsec::cpu

#endif // MEMSEC_CPU_TRACE_HH
