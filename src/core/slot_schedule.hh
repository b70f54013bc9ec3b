/**
 * @file
 * The FS slot template: the one description of a Fixed-Service frame.
 *
 * A solved pipeline (spacing l and the Figure 1 command offsets) plus
 * the per-domain slot weights, the bank-group alternation factor and,
 * with refresh, the rank count fix everything an FS frame does before
 * a single cycle runs: slot s is referenced at s * l + lead, its ACT,
 * CAS and data burst sit at fixed offsets from that reference, the
 * frame interleaves domains round-robin by weight, and a slot whose
 * reference falls within the quiet margin before an armed refresh
 * epoch is blacked out. SlotTemplate builds that frame once.
 * FsScheduler executes it; the static ScheduleVerifier model-checks
 * it with its own rule checks, which stay the independent oracle; the
 * tools render it as the paper's Figure 1 strip.
 */

#ifndef MEMSEC_CORE_SLOT_SCHEDULE_HH
#define MEMSEC_CORE_SLOT_SCHEDULE_HH

#include <string>
#include <vector>

#include "core/pipeline_solver.hh"
#include "dram/timing_rules.hh"
#include "sim/types.hh"

namespace memsec::core {

/** One FS frame: slot table, command cycles and refresh blackout. */
class SlotTemplate
{
  public:
    /** Slot-table entry of a phantom pad slot (serves no domain). */
    static constexpr DomainId kPhantom = ~0u;

    /**
     * @param sol           solved spacing and offsets (l > 0)
     * @param weights       issue slots per domain per frame; the
     *                      domain count is weights.size(), and a
     *                      zero-weight domain gets no slot
     * @param groups        bank-group alternation factor (1 = none)
     * @param refreshRanks  ranks refreshed back-to-back per epoch;
     *                      0 models no refresh
     */
    SlotTemplate(const PipelineSolution &sol,
                 const std::vector<unsigned> &weights, unsigned groups,
                 const dram::TimingParams &tp, unsigned refreshRanks = 0);

    /** Cycles by which commands may precede the slot reference. */
    static Cycle leadOf(const SlotOffsets &off);

    const PipelineSolution &solution() const { return sol_; }
    unsigned spacing() const { return sol_.l; }
    const SlotOffsets &offsets() const { return sol_.offsets; }
    Cycle lead() const { return lead_; }
    unsigned numDomains() const { return numDomains_; }
    unsigned groups() const { return groups_; }
    const dram::TimingParams &timing() const { return tp_; }

    /** Slots per frame, a phantom pad slot included. */
    uint64_t slotsPerFrame() const { return table_.size(); }

    /** Frame length Q = slotsPerFrame * l. */
    Cycle frameLength() const { return slotsPerFrame() * sol_.l; }

    /** Domain served by slot s, or kPhantom for a pad slot. */
    DomainId domainOf(uint64_t slot) const
    {
        return table_[slot % table_.size()];
    }

    /** Reference cycle of slot s (the periodic command or burst). */
    Cycle refCycle(uint64_t slot) const { return slot * sol_.l + lead_; }

    using Edge = dram::CmdEdge;

    /** Cycle of a command edge of slot s with the given type. */
    Cycle at(uint64_t slot, Edge e, bool write) const
    {
        const SlotOffsets &o = sol_.offsets;
        switch (e) {
          case Edge::Act:
            return refCycle(slot) + (write ? o.actWrite : o.actRead);
          case Edge::Cas:
            return refCycle(slot) + (write ? o.casWrite : o.casRead);
          case Edge::Data:
            break;
        }
        return refCycle(slot) + (write ? o.dataWrite : o.dataRead);
    }
    Cycle actAt(uint64_t s, bool w) const { return at(s, Edge::Act, w); }
    Cycle casAt(uint64_t s, bool w) const { return at(s, Edge::Cas, w); }
    Cycle dataAt(uint64_t s, bool w) const { return at(s, Edge::Data, w); }

    /** Bank group slot s serves (always 0 without alternation). */
    unsigned groupOf(uint64_t slot) const
    {
        return groups_ > 1 ? static_cast<unsigned>(slot % groups_) : 0;
    }

    /** True if slot s may touch `bank` under group alternation. */
    bool inGroup(uint64_t slot, unsigned bank) const
    {
        return groups_ <= 1 || bank % groups_ == groupOf(slot);
    }

    bool refresh() const { return refreshPause_ > 0; }
    /** Quiet-down before an epoch: one worst-case slot footprint. */
    Cycle refreshMargin() const { return refreshMargin_; }
    /** One REF per rank back-to-back, then tRFC. */
    Cycle refreshPause() const { return refreshPause_; }

    /** True if slot s falls in the blackout of the epoch armed at
     *  `epoch` (its commands could reach the REF burst). */
    bool blackedOut(uint64_t slot, Cycle epoch) const
    {
        return refCycle(slot) + refreshMargin_ > epoch;
    }

    /**
     * True if two slots of one domain can come closer than the
     * worst-case same-bank reuse time, once the skew between a read's
     * and a write's ACT is taken off. Such pairs are left to the
     * planners' dynamic guard (Section 7).
     */
    bool sameBankHazard() const;

  private:
    PipelineSolution sol_;
    dram::TimingParams tp_;
    unsigned numDomains_ = 0;
    unsigned groups_ = 1;
    Cycle lead_ = 0;
    std::vector<DomainId> table_;
    Cycle refreshMargin_ = 0;
    Cycle refreshPause_ = 0;
};

/**
 * The Figure 1 strip: one row per slot, `label` plus the slot index,
 * RD/WR, then `span` cycles with A = ACT, C/W = column read/write and
 * d = data. `writes[s]` types slot s.
 */
std::string renderTimeline(const SlotTemplate &t,
                           const std::vector<bool> &writes, Cycle span,
                           char label);

} // namespace memsec::core

#endif // MEMSEC_CORE_SLOT_SCHEDULE_HH
