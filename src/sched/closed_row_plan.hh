/**
 * @file
 * The closed-row slot plan shared by the secure schedulers.
 *
 * FS (every partitioning), FS-reordered and TP serve traffic the same
 * way: each slot is one closed-row transaction, an ACT and then an
 * RdA or WrA at fixed template offsets, planned ahead of issue. This
 * unit owns that machinery once: the planned-op queue, the one-
 * command-per-cycle issue loop, the planned-op part of the idle-skip
 * wake hint, the bank- and rank-scope shadow the planners' eligibility
 * tests read, and the checkpoint layout of all of it. Slot choice
 * (which request, which dummy, when) stays with each scheduler.
 *
 * The shadow interprets dram::TimingRuleTable::pairRules(). reserve()
 * turns every SameBank and SameRank row into a horizon keyed by scope
 * instance, later edge and later type, placing the row's `from` edge
 * by the template offsets (the CAS is tRCD after the ACT, which the
 * constructor asserts). The actWindow row (tFAW) keeps a ring of the
 * last actWindow planned ACTs per rank, each plus the window's gap,
 * and the oldest sets the rank's ACT horizon. Horizons are max-combined; in
 * a scope a scheduler checks, that equals overwriting, since an
 * admitted op never lowers a horizon there (a same-rank ACT earlier
 * than a planned one fails tRRD).
 *
 * FS asks for both scopes. Its rank checks read other domains'
 * reservations yet never bind across domains: the solver guarantees
 * every SameRank row between any two slots at distance >= 1. TP and
 * FS-reordered ask for the bank scope only. FS-reordered reserves
 * every op at the interval's last slot, so one interval's same-type
 * reservations share one ACT cycle; four fill a rank's tFAW ring, and
 * a tFAW check at the next interval's earliest ACT would then depend
 * on how many *other* domains used that rank, a cross-domain channel.
 * TP's turn footprint, not the shadow, keeps rank-level state from
 * crossing a turn boundary.
 */

#ifndef MEMSEC_SCHED_CLOSED_ROW_PLAN_HH
#define MEMSEC_SCHED_CLOSED_ROW_PLAN_HH

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "core/pipeline_solver.hh"
#include "dram/timing_rules.hh"
#include "mem/memory_controller.hh"
#include "sim/types.hh"

namespace memsec::sched {

/** Planned closed-row transactions of one controller. */
class ClosedRowPlan
{
  public:
    /** One planned transaction: ACT at actAt, then RdA/WrA at casAt. */
    struct Op
    {
        std::unique_ptr<mem::MemRequest> req; ///< null after CAS issue
        bool write = false;
        bool dummy = false;
        bool suppressAct = false;
        bool suppressCas = false;
        Cycle actAt = 0;
        Cycle casAt = 0;
        bool actIssued = false;
        /** Completion handed to the client; kNoCycle means the CAS
         *  burst's dataEnd. */
        Cycle completeAt = kNoCycle;
    };

    /** Panics unless both templates in `off` put the CAS tRCD after
     *  the ACT, the invariant the horizons rely on. */
    ClosedRowPlan(mem::MemoryController &mc, const core::SlotOffsets &off);

    /** Append an op; ops issue in plan order. */
    void push(Op op) { ops_.push_back(std::move(op)); }

    /** Ops planned and not yet retired, oldest first. */
    const std::deque<Op> &ops() const { return ops_; }

    /**
     * True if an op of the given type with its ACT at actAt clears
     * every horizon `scope` (SameBank or SameRank) holds for
     * (rank, bank).
     */
    bool admits(dram::RuleScope scope, unsigned rank, unsigned bank,
                Cycle actAt, bool write) const;

    /** Record the horizons an op planned to ACT at actAt sets. */
    void reserve(unsigned rank, unsigned bank, Cycle actAt, bool write);

    /**
     * Issue at most one due or overdue command (the command bus
     * carries one per cycle), then retire served ops from the front.
     */
    void issueDue(Cycle now);

    /** Earliest pending command cycle, which is in the past for an
     *  overdue command; kNoCycle when nothing is pending. */
    Cycle nextCommandCycle() const;

    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

  private:
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar);

    /** Horizon slots per scope instance: one per (later edge, type). */
    static constexpr size_t kSlots = 3 * 2;

    /** Index in horizon_ of (rank, bank)'s first slot under `scope`. */
    size_t slotsOf(dram::RuleScope scope, unsigned rank,
                   unsigned bank) const;

    mem::MemoryController &mc_;
    dram::DramSystem &dram_;
    unsigned banksPerRank_ = 0;
    unsigned banks_ = 0; ///< banks per channel
    /** Cycles from an op's ACT to each edge, indexed [write][edge]. */
    std::array<std::array<Cycle, 3>, 2> edgeAt_{};
    /** SameBank and SameRank adjacent-pair rows. */
    std::vector<dram::PairRule> rows_;
    /** The actWindow row (tFAW); actWindow == 1 when there is none. */
    dram::PairRule window_{};

    std::deque<Op> ops_;
    /** Earliest cycle each edge of a later op may sit at, kSlots per
     *  bank and then per rank, covering planned-but-unissued commands. */
    std::vector<Cycle> horizon_;
    /** Per rank, the last actWindow planned ACTs plus the window's
     *  gap, oldest first; 0 where the rank has had fewer ACTs. */
    std::vector<Cycle> windowEnds_;
};

} // namespace memsec::sched

#endif // MEMSEC_SCHED_CLOSED_ROW_PLAN_HH
