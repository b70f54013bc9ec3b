/**
 * @file
 * Self-composition noninterference certifier.
 *
 * The ScheduleVerifier proves the FS command *template* conflict-free;
 * the empirical leakage meter (bench/fig_leakage) measures how many
 * bits actually cross; this certifier closes the gap between the two:
 * it proves, by exhaustive self-composition over a bounded input
 * lattice, that the *implemented* scheduler's observer-visible
 * behaviour is invariant in everything the other domains do.
 *
 * Self-composition: fix one observer domain and one deterministic
 * observer workload, then drive a fresh controller + scheduler + DRAM
 * instance once per point of the non-observer demand lattice — every
 * subset of co-runner domains backlogged, under several backlog
 * phasings (sustained from cycle 0, phase-shifted start, mid-run
 * burst that empties the queues again) — and require the observer's
 * service timeline (the same arrival/completion observable the
 * noninterference audit layer compares) to be byte-identical to the
 * all-idle reference run. Refresh-epoch boundaries are covered by
 * sizing the horizon past multiple tREFI epochs when refresh is
 * modelled; queue-occupancy boundaries by the Backlogged observer
 * profile, which keeps the observer's own queue saturated so
 * admission (canAccept) timing is part of the observable.
 *
 * The contract mirrors ScheduleVerifier::verify: either a certificate
 * (every lattice point matched the reference) or a concrete witness —
 * the minimal-popcount co-runner set, scenario and observer profile
 * that diverged, with the first divergent observation and cycle.
 * FR-FCFS yields a witness within a handful of slots; the FS family
 * and TP must certify at every paper design point.
 */

#ifndef MEMSEC_ANALYSIS_NONINTERFERENCE_CERTIFIER_HH
#define MEMSEC_ANALYSIS_NONINTERFERENCE_CERTIFIER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/noninterference.hh"
#include "fault/fault_injector.hh"
#include "mem/address_map.hh"
#include "sched/factory.hh"
#include "sim/types.hh"

namespace memsec::mem {
class MemoryController;
}

namespace memsec::analysis {

/** Scheduling scheme the certifier instantiates: the harness's
 *  scheduler kinds, built by the same factory. */
using CertScheme = sched::SchedKind;

/**
 * How the observer drives its own demand. Probe: one open-loop read
 * every fixed period (latency observable). Backlogged: the queue is
 * topped up whenever the controller accepts (admission + throughput
 * observable — this is the profile that exposes queue-occupancy
 * coupling a sparse probe would miss).
 */
enum class ObserverProfile : uint8_t { Probe, Backlogged };

const char *observerProfileName(ObserverProfile p);

/** One certification target: scheme, shape, and modelled context. */
struct CertifierConfig
{
    CertScheme scheme = CertScheme::Fs;

    /** How the address map partitions the domains; the scheduler
     *  solves its pipeline for it. */
    mem::Partition partition = mem::Partition::None;

    /** FS design point (triple alternation, pinned reference,
     *  refresh). Only read when scheme == Fs. */
    sched::FsScheduler::Params fs;

    /** TP turn length in memory cycles (scheme == Tp). */
    unsigned tpTurnLength = 60;

    /** Security domains in the modelled system. The lattice has
     *  2^(numDomains-1) co-runner subsets, so keep this small; 4
     *  (8 subsets) exercises every sharing structure. */
    unsigned numDomains = 4;

    /** The domain whose view must be invariant. */
    DomainId observer = 0;

    /** Horizon in frame-equivalents (FS frames / reordered intervals
     *  / TP rounds); stretched automatically past several refresh
     *  epochs when refresh is modelled. */
    unsigned horizonFrames = 40;

    /** Optional fault campaign armed on every run. A certificate must
     *  be refused when the fault couples domains (slot-skew,
     *  cross-coupling) — the certifier proving it can catch the
     *  schedulers it is meant to catch. */
    fault::FaultSpec fault;

    /**
     * Test hook: build the scheduler yourself instead of by scheme
     * (used to certify deliberately leaky toy schedulers) on the
     * map `partition` selects.
     */
    std::function<std::unique_ptr<sched::Scheduler>(
        mem::MemoryController &)>
        makeScheduler;
};

/** A concrete distinguishing input pair (the non-certificate proof). */
struct CertWitness
{
    /** Bit d set = domain d backlogged; the reference run is the
     *  all-idle assignment 0, so this IS the minimal distinguishing
     *  pair (assignments are swept in popcount-then-value order). */
    uint32_t assignment = 0;
    unsigned scenario = 0; ///< backlog phasing index (see scenarioName)
    ObserverProfile profile = ObserverProfile::Probe;

    /** First divergent observation (index into the service timeline);
     *  == the common length when one run serviced more requests. */
    uint64_t index = 0;
    bool countMismatch = false; ///< timelines differ in length
    bool errorMismatch = false; ///< recoverable-error counts differ
    core::ServiceEvent expected; ///< reference run's observation
    core::ServiceEvent observed; ///< diverging run's observation
    Cycle firstDivergenceCycle = 0;

    std::string toString() const;
};

/** Human-readable name of a backlog-phasing scenario. */
const char *scenarioName(unsigned scenario);

/** Number of backlog-phasing scenarios swept per assignment. */
inline constexpr unsigned kCertScenarios = 3;

/** Outcome of certifying one config: proof or counterexample. */
struct CertifyResult
{
    bool certified = false;
    unsigned numDomains = 0;
    uint64_t assignmentsChecked = 0; ///< (profile, subset) pairs
    uint64_t runsChecked = 0;        ///< full simulations executed
    Cycle horizonCycles = 0;         ///< injection horizon per run
    uint64_t observations = 0;       ///< reference Probe-run events
    std::string scheduler;           ///< scheduler name() under test
    bool hasWitness = false;
    CertWitness witness;

    std::string summary() const;
};

/** Exhaustive self-composition checker for one scheduler config. */
class NoninterferenceCertifier
{
  public:
    explicit NoninterferenceCertifier(const CertifierConfig &cfg);

    /** Run the full (profile x assignment x scenario) sweep. */
    CertifyResult certify() const;

    const CertifierConfig &config() const { return cfg_; }

  private:
    /** Observer-visible outcome of one simulation. */
    struct Trace
    {
        std::vector<core::ServiceEvent> events;
        uint64_t errors = 0;
        std::string schedName;
    };

    Trace run(ObserverProfile profile, unsigned scenario,
              uint32_t assignment, Cycle horizon) const;

    /** Injection horizon: horizonFrames frame-equivalents, stretched
     *  past several refresh epochs when refresh is modelled. */
    Cycle horizon() const;

    CertifierConfig cfg_;
};

/** One of the paper's five (reference, partition) design points. */
struct PaperCertPoint
{
    const char *label;  ///< e.g. "fs data/rank"
    unsigned l = 0;     ///< the paper's slot spacing for this point
    CertifierConfig cfg;
};

/**
 * The paper's five FS design points (l = 7, 12, 15, 21, 43) as
 * ready-to-run certifier configs, pinning the periodic reference so
 * the non-winning points (rank/RAS l=12, bank/data l=21) instantiate
 * through the real scheduler too.
 */
std::vector<PaperCertPoint> paperCertPoints(unsigned numDomains = 4);

} // namespace memsec::analysis

#endif // MEMSEC_ANALYSIS_NONINTERFERENCE_CERTIFIER_HH
