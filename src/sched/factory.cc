#include "sched/factory.hh"

#include "sched/frfcfs.hh"
#include "util/logging.hh"

namespace memsec::sched {

std::unique_ptr<Scheduler>
makeScheduler(mem::MemoryController &mc, const SchedSpec &spec)
{
    switch (spec.kind) {
      case SchedKind::Fs:
        return std::make_unique<FsScheduler>(mc, spec.fs);
      case SchedKind::FsReordered:
        return std::make_unique<FsReorderedScheduler>(mc, spec.reordered);
      case SchedKind::Tp:
        return std::make_unique<TpScheduler>(mc, spec.tp);
      case SchedKind::FrFcfs:
        return std::make_unique<FrFcfsScheduler>(mc, spec.prefetch,
                                                 spec.refresh);
    }
    panic("bad scheduler kind {}", static_cast<int>(spec.kind));
}

mem::Partition
solvedPartition(SchedKind kind, FsMode mode)
{
    switch (kind) {
      case SchedKind::Fs:
        return mode == FsMode::RankPart   ? mem::Partition::Rank
               : mode == FsMode::BankPart ? mem::Partition::Bank
                                          : mem::Partition::None;
      case SchedKind::FsReordered:
      case SchedKind::Tp: return mem::Partition::Bank;
      case SchedKind::FrFcfs: return mem::Partition::None;
    }
    panic("bad scheduler kind {}", static_cast<int>(kind));
}

bool
separates(mem::Partition have, mem::Partition need)
{
    // How far each partition keeps domains apart, by enum value:
    // None, Channel, Rank, Bank.
    constexpr int kLevel[] = {0, 3, 2, 1};
    static_assert(static_cast<int>(mem::Partition::Bank) == 3);
    return kLevel[static_cast<int>(have)] >= kLevel[static_cast<int>(need)];
}

} // namespace memsec::sched
