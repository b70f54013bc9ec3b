/**
 * @file
 * Deterministic, seed-driven fault injection.
 *
 * The injector exists to prove the auditors catch what they claim to
 * catch: every fault kind perturbs the simulated system in a way that
 * a specific safety net (TimingChecker rule class, noninterference
 * comparison, structured-error channel, trace parser) must detect.
 *
 * Command-stream faults work by mutating the *audit stream*: the fast
 * path executes the real command while the TimingChecker observes a
 * dropped / delayed / duplicated / retargeted version, exactly as if
 * the physical command bus had glitched. That keeps the simulation
 * itself deterministic while presenting the checker with an illegal
 * history it must flag.
 *
 * All randomness comes from one Xoshiro instance seeded by
 * `fault.seed`, so a campaign is exactly reproducible.
 */

#ifndef MEMSEC_FAULT_FAULT_INJECTOR_HH
#define MEMSEC_FAULT_FAULT_INJECTOR_HH

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dram/command.hh"
#include "dram/timing.hh"
#include "sim/config.hh"
#include "sim/types.hh"
#include "util/random.hh"

namespace memsec {
class Serializer;
class Deserializer;
} // namespace memsec

namespace memsec::fault {

/** What the injector perturbs. */
enum class FaultKind
{
    None,            ///< injection disabled (the default everywhere)
    CmdDrop,         ///< audit stream loses a command
    CmdDelay,        ///< audit stream sees a command late
    CmdDuplicate,    ///< audit stream sees a command twice
    CmdRetarget,     ///< audit stream sees a command at the wrong bank
    CmdSpurious,     ///< audit stream gains a command (power-down)
    TimingDrift,     ///< device timing drifts from the controller's view
    RefreshSuppress, ///< refreshes vanish from the audit stream
    RefreshStorm,    ///< refreshes double up in the audit stream
    QueueOverflow,   ///< ghost transactions flood the controller queue
    SlotSkew,        ///< scheduler slots shift by a few cycles
    CrossCoupling,   ///< slot timing couples to other domains' backlog
    TraceCorrupt,    ///< trace-file records get mangled
    SnapshotTruncate, ///< checkpoint file loses its tail
    SnapshotBitflip, ///< checkpoint payload gains a flipped bit
    SnapshotVersion, ///< checkpoint claims an unknown format version
    JournalStale,    ///< checkpoint/journal carries a foreign fingerprint
};

/** Canonical config-file name ("cmd-drop", "slot-skew", ...). */
const char *faultKindName(FaultKind kind);

/** Inverse of faultKindName(); fatal on an unknown name. */
FaultKind faultKindByName(const std::string &name);

/** The fault.* config keys, declared once. */
extern const std::span<const ConfigKey> faultConfigKeys;

/** Full parameterisation of one injection campaign. */
struct FaultSpec
{
    FaultKind kind = FaultKind::None;
    uint64_t seed = 1;      ///< fault.seed: PRNG seed
    double rate = 1.0;      ///< fault.rate: P(fire) per opportunity
    Cycle windowLo = 0;     ///< fault.window "lo:hi": fire only in
    Cycle windowHi = kNoCycle; ///<   [lo, hi)
    Cycle magnitude = 1;    ///< fault.magnitude: delay/skew in cycles
    std::string param;      ///< fault.param: kind-specific selector
    double scale = 2.0;     ///< fault.scale: timing-drift multiplier

    /** Read fault.* keys; fatal on malformed values. */
    static FaultSpec fromConfig(const Config &cfg);
};

/**
 * One injector instance drives all hook points of a run. Hook methods
 * are cheap no-ops when the spec's kind does not match, so components
 * can call them unconditionally once an injector is attached.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultSpec &spec);

    const FaultSpec &spec() const { return spec_; }
    bool enabled() const { return spec_.kind != FaultKind::None; }
    bool inWindow(Cycle t) const
    {
        return t >= spec_.windowLo && t < spec_.windowHi;
    }

    /**
     * What the timing auditor should observe for a command really
     * issued at cycle t. Returns (command, cycle) pairs: usually the
     * identity {(cmd, t)}, possibly empty (drop), shifted (delay), or
     * extended (duplicate / spurious). Hook point: DramSystem::issue.
     */
    std::vector<std::pair<dram::Command, Cycle>>
    auditView(const dram::Command &cmd, Cycle t);

    /**
     * TimingDrift: the device's true timing, diverged from the nominal
     * parameters the controller schedules with. The checker audits
     * against the returned set. fault.param picks the field (faw, rrd,
     * burst, rp, rc, rcd), fault.scale the multiplier.
     */
    dram::TimingParams driftTimings(const dram::TimingParams &tp);

    /**
     * SlotSkew: cycles to shift a planned real operation issued around
     * cycle t (0 = leave it alone). Hook point: FsScheduler::plan.
     */
    Cycle slotSkew(Cycle t);

    /**
     * CrossCoupling: cycles to shift a planned operation when other
     * domains have work queued — a scheduler whose slot timing couples
     * to foreign backlog, i.e. a direct noninterference break (unlike
     * SlotSkew's content-keyed drift, the dependence on co-runner
     * demand is explicit). Returns 0 when the foreign backlog is zero,
     * so a run with idle co-runners is never perturbed. Hook point:
     * FsScheduler::plan.
     */
    Cycle couplingSkew(Cycle t, uint64_t foreignBacklog);

    /**
     * QueueOverflow: true if a ghost duplicate transaction should be
     * forced into the controller queue now. Hook point:
     * MemoryController::access.
     */
    bool overflowFires(Cycle t);

    /**
     * TraceCorrupt: deterministically mangle trace-file text
     * (truncated records, bad addresses, bad kinds, garbage prefixes).
     * Hook point: trace loading in tools/tests.
     */
    std::string corruptTraceText(const std::string &text);

    /**
     * Snapshot/journal durability faults: corrupt an encoded snapshot
     * container in place before it is decoded, exactly as a torn
     * write, flipped medium bit, format skew, or stale journal entry
     * would. Each kind must be *detected* by decodeSnapshot() and
     * surfaced as a structured SimError — never a silent wrong
     * digest. Hook point: the snapshot-load path in runExperiment().
     * No-op (and no PRNG draw) unless the spec kind matches.
     */
    void corruptSnapshotBytes(std::string &bytes);

    /** Faults actually injected so far. */
    uint64_t injected() const { return injected_; }

    /** Checkpoint the PRNG stream and injection count. */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

  private:
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar);

    /** Window + rate gate; advances the PRNG when in-window. */
    bool fires(Cycle t);

    /** Does this kind's command mutation target cmd? */
    bool targetsCommand(const dram::Command &cmd) const;

    FaultSpec spec_;
    Rng rng_;
    uint64_t injected_ = 0;
};

} // namespace memsec::fault

#endif // MEMSEC_FAULT_FAULT_INJECTOR_HH
