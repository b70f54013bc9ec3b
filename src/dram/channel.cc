#include "dram/channel.hh"

#include "util/logging.hh"

namespace memsec::dram {

void
ChannelBuses::useCmdBus(Cycle t)
{
    panic_if(lastCmdCycle_ != kNoCycle && t < lastCmdCycle_,
             "command bus time went backwards: {} after {}", t,
             lastCmdCycle_);
    panic_if(!cmdBusFree(t), "command bus conflict at cycle {}", t);
    lastCmdCycle_ = t;
    ++commandCount_;
}

void
ChannelBuses::reserveData(Cycle start, unsigned rank)
{
    panic_if(!dataBusFree(start, rank),
             "data bus conflict: burst at {} (rank {}) but bus busy "
             "until {} (last rank {})",
             start, rank, dataBusyUntil_, lastDataRank_);
    dataBusyUntil_ = start + tp_.burst;
    lastDataRank_ = rank;
    dataBusyCycles_ += tp_.burst;
}

} // namespace memsec::dram
