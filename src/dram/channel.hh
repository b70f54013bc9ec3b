/**
 * @file
 * Channel-level shared buses: the command bus (one command per cycle)
 * and the data bus (burst occupancy with rank-to-rank switch gaps).
 */

#ifndef MEMSEC_DRAM_CHANNEL_HH
#define MEMSEC_DRAM_CHANNEL_HH

#include "dram/timing.hh"
#include "sim/types.hh"

namespace memsec::dram {

/** Shared address/command and data buses of one channel. */
class ChannelBuses
{
  public:
    explicit ChannelBuses(const TimingParams &tp) : tp_(tp) {}

    /** True if the command bus is free at cycle t. */
    bool cmdBusFree(Cycle t) const
    {
        return lastCmdCycle_ == kNoCycle || t != lastCmdCycle_;
    }

    /** Occupy the command bus at cycle t; panics on double occupancy
     *  or time going backwards. */
    void useCmdBus(Cycle t);

    /**
     * Earliest start cycle for a data burst from `rank`, given the
     * previous reservation: back-to-back same-rank bursts may be
     * gapless; different ranks need tRTRS idle between bursts.
     */
    Cycle earliestDataStart(unsigned rank) const
    {
        if (lastDataRank_ == ~0u)
            return 0;
        return dataBusyUntil_ + (rank != lastDataRank_ ? tp_.rtrs : 0);
    }

    /** True if a burst [start, start+tBURST) from rank is legal. */
    bool dataBusFree(Cycle start, unsigned rank) const
    {
        return start >= earliestDataStart(rank);
    }

    /** Reserve the data bus for a burst starting at `start`. */
    void reserveData(Cycle start, unsigned rank);

    /** Cycle the bus becomes free after the last reservation. */
    Cycle dataBusyUntil() const { return dataBusyUntil_; }

    /** Rank of the most recent data burst (~0u if none yet). */
    unsigned lastDataRank() const { return lastDataRank_; }

    /** Total busy data-bus cycles (for utilisation stats). */
    uint64_t dataBusyCycles() const { return dataBusyCycles_; }

    /** Total commands carried (for command-bus utilisation). */
    uint64_t commandCount() const { return commandCount_; }

    template <class Self, class Ar>
    static void io(Self &self, Ar &ar)
    {
        ar.io(self.lastCmdCycle_, self.dataBusyUntil_, self.lastDataRank_,
              self.dataBusyCycles_, self.commandCount_);
    }

  private:
    const TimingParams &tp_;
    Cycle lastCmdCycle_ = kNoCycle;
    Cycle dataBusyUntil_ = 0;
    unsigned lastDataRank_ = ~0u;
    uint64_t dataBusyCycles_ = 0;
    uint64_t commandCount_ = 0;
};

} // namespace memsec::dram

#endif // MEMSEC_DRAM_CHANNEL_HH
