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

} // namespace memsec::sched
