/**
 * @file
 * The single source of truth for DRAM timing rules.
 *
 * Independent consumers enforce the same JEDEC constraints: the
 * dynamic TimingChecker (audits every simulated command), the
 * PipelineSolver (derives the paper's minimum slot spacings), the
 * static ScheduleVerifier (model-checks a whole hyperperiod of a
 * core::SlotTemplate offline; the template reads sameBankReuse() for
 * its one same-bank hazard predicate), and the secure schedulers'
 * planning shadow (sched::ClosedRowPlan, which turns every SameBank
 * and SameRank pair rule, tFAW included, into per-bank and per-rank
 * horizons; TP's turn footprints also read their gaps here). Before
 * this table existed each kept its own copy of the rule constants
 * and names, which could drift apart silently; now
 * all of them consume TimingRuleTable, so a disagreement between them
 * can only be a logic bug, never a constant mismatch.
 *
 * Two views are provided:
 *  - gap(RuleId): the scalar minimum-separation (or duration) each
 *    rule demands, derived from TimingParams;
 *  - pairRules(): the subset expressible as "command X of an earlier
 *    transaction and command Y of a later one must be at least G
 *    cycles apart under sharing scope S", which is exactly the form
 *    the solver's inequalities and the verifier's pair checks need.
 */

#ifndef MEMSEC_DRAM_TIMING_RULES_HH
#define MEMSEC_DRAM_TIMING_RULES_HH

#include <vector>

#include "dram/timing.hh"

namespace memsec::dram {

/**
 * Stable identifier for every timing / legality rule the model
 * enforces. ruleName() returns the exact strings used in Violation
 * records, verifier conflict reports, and test assertions.
 */
enum class RuleId : uint8_t
{
    CmdBus,      ///< one command per cycle on the shared command bus
    DataBus,     ///< data bursts must not overlap (incl. tRTRS slack)
    Rtrs,        ///< rank-to-rank data-bus switch penalty
    Rrd,         ///< ACT-to-ACT, same rank (tRRD)
    Faw,         ///< at most four ACTs per rank per tFAW window
    Ccd,         ///< column-to-column, same type, same rank (tCCD)
    Rd2Wr,       ///< column-read to column-write turnaround (tRTW)
    Wr2Rd,       ///< column-write to column-read turnaround (tWTR-bound)
    Rc,          ///< ACT-to-ACT, same bank (tRC)
    Rcd,         ///< ACT to column command, same bank (tRCD)
    Ras,         ///< ACT to PRE, same bank (tRAS)
    Rp,          ///< PRE to ACT, same bank (tRP)
    Rtp,         ///< column-read to PRE (tRTP)
    Wr,          ///< end of write burst to PRE (tWR)
    Rfc,         ///< refresh cycle time (tRFC)
    Refresh,     ///< retention: every rank refreshed within 2x tREFI
    Xp,          ///< power-down exit to first command (tXP)
    Cke,         ///< minimum power-down residency (tCKE)
    ActToActRdA, ///< same-bank reuse after read + auto-precharge
    ActToActWrA, ///< same-bank reuse after write + auto-precharge
    RowState,    ///< row open/close legality (not a gap)
    PowerDown,   ///< power-down state legality (not a gap)
};

const char *ruleName(RuleId id);

/** Which command of a closed-row transaction a pairwise rule anchors. */
enum class CmdEdge : uint8_t { Act, Cas, Data };

/** Human-readable edge name ("ACT", "CAS", "DATA") for reports. */
const char *cmdEdgeName(CmdEdge e);

/**
 * Resource sharing under which a pairwise rule binds. AnyPair rules
 * constrain every transaction pair (shared buses); SameRank /
 * SameBank rules bind only pairs that may target one rank / bank.
 */
enum class RuleScope : uint8_t { AnyPair, SameRank, SameBank };

/** Transaction-type predicate for one side of a pairwise rule. */
enum class TypePred : uint8_t { Any, Read, Write };

inline bool
typeMatches(TypePred p, bool write)
{
    return p == TypePred::Any || (p == TypePred::Write) == write;
}

/**
 * One "minimum separation between commands of two transactions"
 * rule: `to`-edge of the later transaction must trail the `from`-edge
 * of the earlier one by at least minGap cycles, whenever the pair's
 * types match and the pair can share the rule's scope.
 *
 * actWindow == 1 for adjacent-pair rules. actWindow == 4 marks the
 * tFAW window rule, which binds a transaction and the fourth-previous
 * ACT in the same rank rather than an adjacent pair; both the solver
 * and the verifier special-case it on this field.
 */
struct PairRule
{
    RuleId id;
    RuleScope scope;
    CmdEdge from;
    CmdEdge to;
    TypePred earlier;
    TypePred later;
    unsigned actWindow = 1;
    long minGap = 0;
};

/** All rules, with gaps resolved against one TimingParams. */
class TimingRuleTable
{
  public:
    explicit TimingRuleTable(const TimingParams &tp);

    /** Minimum separation (or duration) the rule demands, in cycles. */
    long gap(RuleId id) const;

    /** The pairwise-expressible subset, for solver/verifier loops. */
    const std::vector<PairRule> &pairRules() const { return pair_; }

    /** Worst-case same-bank ACT-to-ACT gap over the SameBank rows. */
    long sameBankReuse() const;

    const TimingParams &timing() const { return tp_; }

  private:
    TimingParams tp_;
    std::vector<PairRule> pair_;
};

} // namespace memsec::dram

#endif // MEMSEC_DRAM_TIMING_RULES_HH
