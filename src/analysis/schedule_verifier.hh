/**
 * @file
 * Static model-checker for FS slot schedules.
 *
 * The paper's security argument is *static*: the derived slot spacing
 * l makes the command stream conflict-free by construction, before a
 * single cycle is simulated. The dynamic TimingChecker can only
 * confirm this for the transactions one run happens to issue; this
 * verifier proves it for *every* run by unrolling the fixed per-cycle
 * command template over one full hyperperiod — the lcm of the slot
 * frame (Q = slots x l), the densest read/write alternation period
 * (2l), and, when refresh epochs are modelled, the refresh interval
 * tREFI — and exhaustively checking every pair of in-flight
 * transactions under every read/write type combination against the
 * shared timing-rule table (dram/timing_rules.hh).
 *
 * The frame is core::SlotTemplate, the one FsScheduler executes;
 * verify(template) checks any given one, a live scheduler's included.
 * The checks are deliberately a second, independent implementation
 * of the constraints the PipelineSolver encodes as inequalities: the
 * solver reasons over abstract slot distances, the verifier over
 * concrete unrolled cycles. Tests cross-validate the two — the
 * paper's Table gaps (l = 7, 12, 15, 21, 43) must fall out of both,
 * with verify(l-1) producing a concrete conflicting command pair.
 *
 * Scope note: under rank partitioning, a domain's *own* consecutive
 * slots (one frame apart) may reuse a bank; like the solver, the
 * verifier treats that as dynamically guarded (the planned shadow's
 * hazard deferrals, sched::ClosedRowPlan, Section 7), and
 * SlotTemplate::sameBankHazard() says where that guard is needed.
 */

#ifndef MEMSEC_ANALYSIS_SCHEDULE_VERIFIER_HH
#define MEMSEC_ANALYSIS_SCHEDULE_VERIFIER_HH

#include <string>
#include <vector>

#include "core/pipeline_solver.hh"
#include "core/slot_schedule.hh"
#include "dram/timing_rules.hh"
#include "sim/types.hh"

namespace memsec::analysis {

/** What to verify: one FS design point plus the modelled context. */
struct VerifierConfig
{
    core::PeriodicRef ref = core::PeriodicRef::Data;
    core::PartitionLevel level = core::PartitionLevel::Rank;
    /** Security domains = slots per frame (before group padding). */
    unsigned numDomains = 8;
    /** Ranks refreshed back-to-back in one epoch (refresh model). */
    unsigned numRanks = 8;
    /**
     * Bank-group alternation factor (Section 4.3's triple
     * alternation). 1 = plain partitioning; >1 = banks are
     * unpartitioned and slot s may only touch banks with
     * bank % groups == s % groups, so only same-group slots can
     * collide on a bank (FsScheduler's triple alternation; the template
     * adds the phantom pad slot).
     */
    unsigned bankGroups = 1;
    /** Model the deterministic refresh-epoch blackout (fs.cc). */
    bool refresh = false;
};

/** A concrete violated constraint between two unrolled slots. */
struct ConflictReport
{
    /** Domain field value for a phantom pad slot / the refresh epoch. */
    static constexpr DomainId kNoDomain = ~0u;

    dram::RuleId rule = dram::RuleId::CmdBus;
    uint64_t earlierSlot = 0;
    uint64_t laterSlot = 0;
    bool earlierWrite = false;
    bool laterWrite = false;
    /** Offending command cycles in the unrolled schedule. */
    Cycle earlierCycle = 0;
    Cycle laterCycle = 0;
    long gap = 0;  ///< separation the schedule achieves
    long need = 0; ///< separation the rule demands

    /** Domains owning the two slots (kNoDomain: phantom / epoch). */
    DomainId earlierDomain = kNoDomain;
    DomainId laterDomain = kNoDomain;
    /** Command edges the violated rule anchors (ACT / CAS / DATA). */
    dram::CmdEdge fromEdge = dram::CmdEdge::Act;
    dram::CmdEdge toEdge = dram::CmdEdge::Act;
    /** Offending cycles reduced modulo the slot frame (Q = slots*l):
     *  where inside the repeating template the pair collides. */
    Cycle earlierFrameOffset = 0;
    Cycle laterFrameOffset = 0;
    /** The "later" side is a refresh epoch, not a slot. */
    bool againstRefreshEpoch = false;

    std::string toString() const;
};

/** Outcome of model-checking one slot spacing. */
struct VerifyResult
{
    bool ok = false;
    unsigned l = 0;
    Cycle hyperperiod = 0;
    uint64_t slotsChecked = 0;
    uint64_t pairsChecked = 0;
    uint64_t refreshEpochsChecked = 0;
    bool hasConflict = false;
    ConflictReport conflict; ///< first conflict found (when !ok)

    std::string summary() const;
};

/** Exhaustive hyperperiod verifier for one (device, config) pair. */
class ScheduleVerifier
{
  public:
    ScheduleVerifier(const dram::TimingParams &tp,
                     const VerifierConfig &cfg);

    /**
     * lcm(slot frame, r/w turnaround period, refresh interval when
     * modelled) — the period after which the command template and
     * every modelled context repeat exactly.
     */
    Cycle hyperperiod(unsigned l) const;

    /** Model-check slot spacing l over one hyperperiod. */
    VerifyResult verify(unsigned l) const;

    /**
     * Model-check a given frame, e.g. a live FsScheduler's
     * slotTemplate(), against this verifier's device. Only the
     * template is read; the config plays no part.
     */
    VerifyResult verify(const core::SlotTemplate &t) const;

    /** Smallest l in [1, maxL] with verify(l).ok; 0 if none. */
    unsigned minimalFeasible(unsigned maxL = 512) const;

    const VerifierConfig &config() const { return cfg_; }
    const dram::TimingRuleTable &rules() const { return rules_; }

  private:
    /** The frame the config describes at slot spacing l: one slot
     *  per domain, built as FsScheduler builds its own. */
    core::SlotTemplate templateAt(unsigned l) const;

    Cycle hyperperiod(const core::SlotTemplate &t) const;

    /** True if the slot issues no commands (phantom / blackout). */
    bool skipped(const core::SlotTemplate &t, uint64_t slot) const;

    bool canShareRank(const core::SlotTemplate &t) const;
    bool canShareBank(const core::SlotTemplate &t, uint64_t a,
                      uint64_t b) const;

    /** Check one ordered pair under one type combo; false = conflict. */
    bool checkPair(const core::SlotTemplate &t, uint64_t si, uint64_t sj,
                   bool wi, bool wj, ConflictReport *out) const;

    /** tFAW sliding-window check over worst-case same-rank ACTs. */
    bool checkFawWindows(const core::SlotTemplate &t, uint64_t slots,
                         ConflictReport *out) const;

    /** Refresh-epoch blackout and retention checks. */
    bool checkRefresh(const core::SlotTemplate &t, uint64_t slots,
                      ConflictReport *out, uint64_t *epochs) const;

    /** Armed refresh epoch at the slot's decision cycle. */
    Cycle armedEpoch(const core::SlotTemplate &t,
                     Cycle decisionCycle) const;

    dram::TimingParams tp_;
    dram::TimingRuleTable rules_;
    VerifierConfig cfg_;
};

} // namespace memsec::analysis

#endif // MEMSEC_ANALYSIS_SCHEDULE_VERIFIER_HH
