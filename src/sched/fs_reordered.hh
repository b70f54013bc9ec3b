/**
 * @file
 * Fixed-Service with reordered bank partitioning (Section 4.2).
 *
 * All domains inject one transaction at the start of each interval;
 * the scheduler performs every read first, then every write, with a
 * tight uniform data spacing, and ends the interval with a single
 * write-to-read recovery gap. Reordering by type would leak the
 * co-runners' read/write mix through read latency, so all read
 * results are returned to the cores en masse at the end of the
 * interval.
 */

#ifndef MEMSEC_SCHED_FS_REORDERED_HH
#define MEMSEC_SCHED_FS_REORDERED_HH

#include <vector>

#include "core/pipeline_solver.hh"
#include "sched/closed_row_plan.hh"
#include "sched/scheduler.hh"
#include "util/random.hh"

namespace memsec::sched {

/** Interval-batched, read/write-reordered FS scheduler. */
class FsReorderedScheduler : public Scheduler
{
  public:
    struct Params
    {
        uint64_t rngSeed = 0x5eedf00d;
    };

    /** Fatal unless partitionError() accepts `mc`'s address map. */
    FsReorderedScheduler(mem::MemoryController &mc, const Params &params);

    /** Why the bank-level pipeline cannot run on a map partitioned by
     *  `part`, or "". */
    static std::string partitionError(mem::Partition part);

    void tick(Cycle now) override;
    Cycle nextWakeCycle(Cycle now) const override;
    std::string name() const override { return "fs-reordered-bank"; }
    void registerStats(StatGroup &group) const override;

    Cycle intervalLength() const { return q_; }
    const core::ReorderedSolution &solution() const { return sol_; }

    uint64_t realOps() const { return realOps_.value(); }
    uint64_t dummyOps() const { return dummyOps_.value(); }

    void saveState(Serializer &s) const override;
    void restoreState(Deserializer &d) override;

  private:
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar);

    void decideInterval(uint64_t interval, Cycle now);
    std::unique_ptr<mem::MemRequest> makeDummy(DomainId domain, bool write,
                                               Cycle actAt, Cycle now);

    Params params_;
    core::ReorderedSolution sol_;
    Cycle q_ = 0;
    Cycle lead_ = 0;

    ClosedRowPlan plan_;
    std::vector<Rng> domainRng_;
    std::vector<size_t> dummyRr_;

    Counter realOps_;
    Counter dummyOps_;
    Counter hazardDeferrals_;
};

} // namespace memsec::sched

#endif // MEMSEC_SCHED_FS_REORDERED_HH
