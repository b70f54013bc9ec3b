/**
 * @file
 * The closed-row slot plan shared by the secure schedulers.
 *
 * FS (every partitioning), FS-reordered and TP serve traffic the same
 * way: each slot is one closed-row transaction, an ACT and then an
 * RdA or WrA at fixed template offsets, planned ahead of issue. This
 * unit owns that machinery once: the planned-op queue, the one-
 * command-per-cycle issue loop, the planned-op part of the idle-skip
 * wake hint, the bank-reuse shadow the planners' eligibility tests
 * read, and the checkpoint layout of all of it. Slot choice (which
 * request, which dummy, when) stays with each scheduler.
 *
 * The bank-reuse horizon is read from dram::TimingRuleTable, not
 * restated: every closed-row template has casAt - actAt == tRCD
 * (PipelineSolver::offsets), so a bank planned for an ACT at actAt is
 * free again at actAt + max(gap(Rc), gap(ActToActRdA | ActToActWrA)).
 */

#ifndef MEMSEC_SCHED_CLOSED_ROW_PLAN_HH
#define MEMSEC_SCHED_CLOSED_ROW_PLAN_HH

#include <deque>
#include <memory>
#include <vector>

#include "core/pipeline_solver.hh"
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
     *  the ACT, the invariant the reuse horizon relies on. */
    ClosedRowPlan(mem::MemoryController &mc, const core::SlotOffsets &off);

    /** Append an op; ops issue in plan order. */
    void push(Op op) { ops_.push_back(std::move(op)); }

    /** Ops planned and not yet retired, oldest first. */
    const std::deque<Op> &ops() const { return ops_; }

    /** True if an ACT on (rank, bank) may be planned at actAt. */
    bool
    bankFree(unsigned rank, unsigned bank, Cycle actAt) const
    {
        return actAt >= bankFree_[index(rank, bank)];
    }

    /** Record the reuse horizon of an op planned to ACT at actAt. */
    void reserve(unsigned rank, unsigned bank, Cycle actAt, bool write)
    {
        bankFree_[index(rank, bank)] =
            actAt + (write ? reuseWrite_ : reuseRead_);
    }

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
    size_t
    index(unsigned rank, unsigned bank) const
    {
        return static_cast<size_t>(rank) * banksPerRank_ + bank;
    }

    mem::MemoryController &mc_;
    dram::DramSystem &dram_;
    unsigned banksPerRank_ = 0;
    Cycle reuseRead_ = 0;  ///< ACT-to-ACT, same bank, after RdA
    Cycle reuseWrite_ = 0; ///< ACT-to-ACT, same bank, after WrA

    std::deque<Op> ops_;
    /** Earliest cycle a new ACT may be planned per (rank, bank),
     *  covering planned-but-unissued auto-precharges. */
    std::vector<Cycle> bankFree_;
};

} // namespace memsec::sched

#endif // MEMSEC_SCHED_CLOSED_ROW_PLAN_HH
