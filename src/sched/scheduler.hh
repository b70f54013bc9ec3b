/**
 * @file
 * Scheduling-policy strategy interface.
 *
 * A Scheduler owns all transaction-ordering decisions of one memory
 * controller; it is ticked once per memory cycle and may issue at most
 * one DRAM command per tick (the command bus carries one command per
 * cycle). Concrete policies: FR-FCFS+ (non-secure baseline), Temporal
 * Partitioning (prior work), and the Fixed-Service family (this
 * paper).
 */

#ifndef MEMSEC_SCHED_SCHEDULER_HH
#define MEMSEC_SCHED_SCHEDULER_HH

#include <string>

#include "mem/memory_controller.hh"
#include "sim/types.hh"
#include "stats/stats.hh"

namespace memsec::fault {
class FaultInjector;
}

namespace memsec::sched {

/** Abstract scheduling policy. */
class Scheduler
{
  public:
    explicit Scheduler(mem::MemoryController &mc)
        : mc_(mc), dram_(mc.dram())
    {
    }
    virtual ~Scheduler() = default;

    /** Advance one memory cycle; may issue at most one command. */
    virtual void tick(Cycle now) = 0;

    /**
     * Idle-skip hint (see Component::nextWakeCycle): the earliest
     * cycle > now at which this policy's tick() would do anything
     * observable, queried right after tick(now). The conservative
     * default declares every cycle interesting, so policies without a
     * hint keep the naive per-cycle loop.
     */
    virtual Cycle
    nextWakeCycle(Cycle now) const
    {
        return now + 1;
    }

    /** Policy name for reports. */
    virtual std::string name() const = 0;

    /** Hook called once after the measured run (e.g. to settle
     *  deferred energy accounting). */
    virtual void finalize(Cycle now) { (void)now; }

    /** Export policy-specific statistics. */
    virtual void registerStats(StatGroup &group) const { (void)group; }

    /**
     * Offer a fault injector to the policy. The default ignores it;
     * policies with injectable decision points (FS slot timing)
     * override. Never alters behaviour when the injector's kind does
     * not target the scheduler.
     */
    virtual void attachFaultInjector(fault::FaultInjector *inj)
    {
        (void)inj;
    }

    /**
     * Serialize the policy's evolving state (planned operations,
     * per-domain RNG streams, refresh bookkeeping, counters). Every
     * concrete policy must implement the pair; the restore obligation
     * is the same byte-identical-continuation contract as
     * Component::saveState. The defaults panic so a new policy cannot
     * silently checkpoint nothing.
     */
    virtual void saveState(Serializer &s) const;
    virtual void restoreState(Deserializer &d);

  protected:
    mem::MemoryController &mc_;
    dram::DramSystem &dram_;
};

} // namespace memsec::sched

#endif // MEMSEC_SCHED_SCHEDULER_HH
