/**
 * @file
 * Open-loop cloud-traffic arrival generator.
 *
 * Closed-loop trace cores issue a new request only when the previous
 * one retires, so controller queueing throttles the offered load and
 * tail latencies self-censor. Cloud front-ends do the opposite: huge
 * client populations issue independently of service, and the SLA
 * metric is the latency *percentile* under that offered load
 * ("Memory Controller Design Under Cloud Workloads", PAPERS.md).
 *
 * ArrivalTraceGenerator models that population behind the existing
 * TraceGenerator interface so the core model, idle-skip kernel,
 * checkpointing, and the leakage harness all keep working unchanged:
 *
 *  - a seeded arrival process schedules request issue times on the
 *    DRAM-bus clock: Poisson (superposition of any client count is
 *    itself Poisson, so one aggregate exponential clock is exact),
 *    or two-state MMPP burst/idle sources (min(clients, 64) state
 *    machines splitting the rate), optionally shaped by a diurnal
 *    sinusoidal intensity envelope sampled by thinning;
 *  - next() returns an arrival record (gap 0, issueAt stamped with
 *    the scheduled cycle) whenever one is due at the last observed
 *    cycle, else a filler record (kFillerGap non-memory instructions
 *    plus a store to one hot line that stays LLC-resident) so the
 *    ROB keeps retiring and re-polls the process roughly once per
 *    bus cycle;
 *  - the issueAt stamp rides through CoreModel into
 *    MemRequest::issued, so per-domain latency histograms measure
 *    client-observed latency including any client-side queueing when
 *    the ROB backs up under overload (the ROB acts as the finite
 *    client buffer; arrivals delayed past their stamp are issued
 *    late but accounted from the stamp).
 *
 * Determinism: all randomness comes from one Rng seeded from
 * (profile, core seed); records depend only on the pull sequence and
 * the observed cycle values, both identical under naive ticking and
 * idle-skip (same argument as the modulated sender, trace.hh).
 */

#ifndef MEMSEC_CPU_ARRIVAL_HH
#define MEMSEC_CPU_ARRIVAL_HH

#include <cstdint>
#include <vector>

#include "cpu/trace.hh"
#include "sim/types.hh"
#include "util/random.hh"

namespace memsec::cpu {

/** Open-loop generator driven by a seeded arrival process. */
class ArrivalTraceGenerator : public TraceGenerator
{
  public:
    /** Filler gap: ~one record consumed per bus cycle at the default
     *  retire width (4) x cpu multiplier (4). Self-regulating for
     *  other core shapes — fillers retire freely, so dispatch always
     *  re-polls within a few cycles. */
    static constexpr uint32_t kFillerGap = 15;

    /** MMPP state machines are capped; beyond this the configured
     *  client count is modelled by splitting the aggregate rate
     *  across the capped set (burstiness of the superposition
     *  saturates well before 64 sources). */
    static constexpr unsigned kMaxMmppSources = 64;

    ArrivalTraceGenerator(const WorkloadProfile &profile, uint64_t seed);

    TraceRecord next() override;
    void observeCycle(Cycle now) override { memCycle_ = now; }

    void saveState(Serializer &s) const override;
    void restoreState(Deserializer &d) override;

    /** Arrival records emitted so far (fillers excluded). */
    uint64_t arrivalsEmitted() const { return arrivals_; }

    const WorkloadProfile &profile() const { return profile_; }

  private:
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar);

    /** One independent burst/idle client aggregate. */
    struct Source
    {
        bool burst = true;
        Cycle nextToggle = kNoCycle; ///< kNoCycle: no state machine
        Cycle nextArrival = kNoCycle;
    };

    double envelope(double t) const;
    double ratePerCycle(const Source &s) const;
    void toggle(Source &s);
    /** Next arrival strictly after `from` for this source. */
    Cycle drawArrival(Source &s, Cycle from);
    Addr pickLine();

    WorkloadProfile profile_;
    Rng rng_;
    bool mmpp_ = false;
    double perSourceRate_ = 0.0; ///< base per-cycle rate per source
    std::vector<Source> sources_;
    std::vector<uint64_t> streamPos_;
    unsigned streamRr_ = 0;
    std::vector<Addr> recent_;
    size_t recentIdx_ = 0;
    Cycle memCycle_ = 0;
    uint64_t arrivals_ = 0;
};

} // namespace memsec::cpu

#endif // MEMSEC_CPU_ARRIVAL_HH
