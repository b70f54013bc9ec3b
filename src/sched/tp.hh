/**
 * @file
 * Temporal Partitioning (Wang et al., HPCA 2014) — the prior-work
 * secure scheduler the paper compares against.
 *
 * Time is divided into fixed turns; only the active security domain
 * may issue during its turn. Following the paper's characterisation
 * (Section 4: the TP models "resemble the basic bank-partitioned and
 * no-partitioned pipelines"), transactions issue closed-page at the
 * fixed-service slot spacing of the matching pipeline — l = 15 under
 * bank partitioning (27% peak bus utilisation), l = 43 with no
 * partitioning (9%) — and no transaction may start unless its entire
 * shared-state footprint (data burst, turnarounds, precharge for
 * shared banks) completes inside the turn; the resulting idle tail is
 * the "dead time" (~12 ns bank-partitioned, ~65 ns unpartitioned).
 * Idle slots stay idle: a turn's owner cannot be observed, so TP
 * needs no dummy traffic.
 */

#ifndef MEMSEC_SCHED_TP_HH
#define MEMSEC_SCHED_TP_HH

#include <string>
#include <vector>

#include "core/pipeline_solver.hh"
#include "sched/closed_row_plan.hh"
#include "sched/scheduler.hh"

namespace memsec::sched {

/** Turn-based temporally partitioned scheduler. */
class TpScheduler : public Scheduler
{
  public:
    struct Params
    {
        unsigned turnLength = 60; ///< memory cycles per turn
        /** The domains whose turns rotate, in turn order; empty means
         *  every domain of the controller. A channel of a
         *  multi-channel system lists the domains mapped to it. */
        std::vector<DomainId> domains = {};
    };

    /** Fatal unless turnError() accepts the turn on `mc`'s map. */
    TpScheduler(mem::MemoryController &mc, const Params &params);

    /** Why a `turnLength`-cycle turn cannot hold one transaction's
     *  footprint on a map partitioned by `part`, or "" if it can. */
    static std::string turnError(const dram::TimingParams &tp,
                                 mem::Partition part, unsigned turnLength);

    void tick(Cycle now) override;
    Cycle nextWakeCycle(Cycle now) const override;
    std::string name() const override { return "tp"; }
    void registerStats(StatGroup &group) const override;

    /** Domain whose turn covers cycle `now`. */
    DomainId activeDomain(Cycle now) const;

    /** First cycle after the turn containing `now`. */
    Cycle turnEnd(Cycle now) const;

    /** In-turn slot spacing (15 bank-partitioned / 43 shared). */
    unsigned slotSpacing() const { return l_; }

    /** Cycles a read/write transaction needs before the turn end. */
    unsigned readFootprint() const { return footRead_; }
    unsigned writeFootprint() const { return footWrite_; }

    const Params &params() const { return params_; }

    void saveState(Serializer &s) const override;
    void restoreState(Deserializer &d) override;

  private:
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar);

    void decideSlot(Cycle now);

    Params params_;
    bool sharedBanks_ = false;
    core::PipelineSolution sol_;
    unsigned l_ = 0;
    unsigned footRead_ = 0;
    unsigned footWrite_ = 0;

    ClosedRowPlan plan_;

    Counter turns_;
    Counter served_;
    Counter idleSlots_;
};

} // namespace memsec::sched

#endif // MEMSEC_SCHED_TP_HH
