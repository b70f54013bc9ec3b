#include "dram/bank.hh"

#include <algorithm>

#include "util/logging.hh"

namespace memsec::dram {

void
Bank::doActivate(Cycle t, unsigned row, const TimingParams &tp)
{
    panic_if(isOpen(), "ACT to bank with open row {}", openRow_);
    panic_if(t < nextAct_, "ACT at {} before nextAct {}", t, nextAct_);
    openRow_ = row;
    nextRead_ = t + tp.rcd;
    nextWrite_ = t + tp.rcd;
    nextPre_ = t + tp.ras;
    nextAct_ = t + tp.rc;
}

void
Bank::doRead(Cycle t, bool autoPre, const TimingParams &tp)
{
    panic_if(!isOpen(), "column read to closed bank");
    panic_if(t < nextRead_, "RD at {} before nextRead {}", t, nextRead_);
    // A later CAS to the same open row only needs tCCD, which is a
    // rank-level constraint; bank-level nextRead stays as set by ACT.
    nextPre_ = std::max(nextPre_, t + tp.rtp);
    if (autoPre) {
        openRow_ = kNoRow;
        nextAct_ = std::max(nextAct_, t + tp.rtp + tp.rp);
    }
}

void
Bank::doWrite(Cycle t, bool autoPre, const TimingParams &tp)
{
    panic_if(!isOpen(), "column write to closed bank");
    panic_if(t < nextWrite_, "WR at {} before nextWrite {}", t, nextWrite_);
    nextPre_ = std::max(nextPre_, t + tp.cwd + tp.burst + tp.wr);
    if (autoPre) {
        openRow_ = kNoRow;
        nextAct_ = std::max(nextAct_,
                            t + tp.cwd + tp.burst + tp.wr + tp.rp);
    }
}

void
Bank::doPrecharge(Cycle t, const TimingParams &tp)
{
    panic_if(!isOpen(), "PRE to closed bank");
    panic_if(t < nextPre_, "PRE at {} before nextPre {}", t, nextPre_);
    openRow_ = kNoRow;
    nextAct_ = std::max(nextAct_, t + tp.rp);
}

void
Bank::blockUntil(Cycle t)
{
    nextAct_ = std::max(nextAct_, t);
    nextRead_ = std::max(nextRead_, t);
    nextWrite_ = std::max(nextWrite_, t);
    nextPre_ = std::max(nextPre_, t);
}

void
Bank::reset()
{
    openRow_ = kNoRow;
    nextAct_ = nextRead_ = nextWrite_ = nextPre_ = 0;
}

} // namespace memsec::dram
