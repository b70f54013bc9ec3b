/**
 * @file
 * The one way to build a scheduler. The harness and the
 * noninterference certifier both build through makeScheduler(), so a
 * certificate speaks about the scheduler an experiment runs; each
 * scheduler solves its pipeline for the address map it is given.
 */

#ifndef MEMSEC_SCHED_FACTORY_HH
#define MEMSEC_SCHED_FACTORY_HH

#include <memory>

#include "sched/fs.hh"
#include "sched/fs_reordered.hh"
#include "sched/tp.hh"

namespace memsec::sched {

/** The four scheduling policies. */
enum class SchedKind : uint8_t { Fs, FsReordered, Tp, FrFcfs };

/** What makeScheduler() builds; each kind reads only its own fields. */
struct SchedSpec
{
    SchedKind kind = SchedKind::FrFcfs;
    FsScheduler::Params fs;
    FsReorderedScheduler::Params reordered;
    TpScheduler::Params tp;
    bool prefetch = false; ///< FR-FCFS: promote queued prefetches
    bool refresh = false;  ///< FR-FCFS: per-rank staggered refresh
};

/** `spec`'s scheduler on `mc`; each constructor's guards still apply. */
std::unique_ptr<Scheduler> makeScheduler(mem::MemoryController &mc,
                                         const SchedSpec &spec);

} // namespace memsec::sched

#endif // MEMSEC_SCHED_FACTORY_HH
