/**
 * @file
 * The one way to build a scheduler, and the partition each one's
 * pipeline is solved for. The harness and the noninterference
 * certifier both build through makeScheduler() and read
 * solvedPartition(), so a certificate speaks about the scheduler an
 * experiment runs.
 */

#ifndef MEMSEC_SCHED_FACTORY_HH
#define MEMSEC_SCHED_FACTORY_HH

#include <memory>

#include "mem/address_map.hh"
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

/**
 * The partition `kind`'s pipeline is solved for (FS by `mode`). FS
 * rank mode assumes adjacent slots never share a rank (l = 7); bank
 * mode and the reordered scheduler assume they never share a bank; FS
 * without partitioning, triple alternation and FR-FCFS assume
 * nothing. TP solves its in-turn pipeline for whatever map it is
 * given (bank level unless unpartitioned); its entry is the
 * bank-partitioned design point.
 */
mem::Partition solvedPartition(SchedKind kind, FsMode mode);

/** True if `have` keeps domains at least as far apart as `need`
 *  (none < bank < rank < channel). */
bool separates(mem::Partition have, mem::Partition need);

} // namespace memsec::sched

#endif // MEMSEC_SCHED_FACTORY_HH
