/**
 * @file
 * Per-bank DRAM state machine and timing bookkeeping.
 *
 * The bank tracks which row (if any) is open and the earliest cycle at
 * which each command class may next be issued to it. The bookkeeping
 * here is the scheduler-facing "fast path"; the independent
 * TimingChecker re-derives the same constraints from command history.
 */

#ifndef MEMSEC_DRAM_BANK_HH
#define MEMSEC_DRAM_BANK_HH

#include "dram/command.hh"
#include "dram/timing.hh"
#include "sim/types.hh"

namespace memsec::dram {

/** State and timing windows of one DRAM bank. */
class Bank
{
  public:
    static constexpr unsigned kNoRow = ~0u;

    /** True if a row is currently open in this bank. */
    bool isOpen() const { return openRow_ != kNoRow; }

    /** Row currently open, or kNoRow. */
    unsigned openRow() const { return openRow_; }

    /** Earliest cycle an ACT may issue. */
    Cycle nextAct() const { return nextAct_; }
    /** Earliest cycle a column-read may issue (row must be open). */
    Cycle nextRead() const { return nextRead_; }
    /** Earliest cycle a column-write may issue (row must be open). */
    Cycle nextWrite() const { return nextWrite_; }
    /** Earliest cycle a PRE may issue. */
    Cycle nextPre() const { return nextPre_; }

    /** The bank's own window for a bank command (ACT, PRE or a
     *  column command): its bank floor. 0 for the rank commands. */
    Cycle floor(CmdType type) const
    {
        switch (type) {
          case CmdType::Act:
            return nextAct_;
          case CmdType::Pre:
            return nextPre_;
          case CmdType::Rd:
          case CmdType::RdA:
            return nextRead_;
          case CmdType::Wr:
          case CmdType::WrA:
            return nextWrite_;
          default:
            return 0;
        }
    }

    /** Apply an ACT issued at cycle t opening row. */
    void doActivate(Cycle t, unsigned row, const TimingParams &tp);

    /** Apply a column read (optionally auto-precharging) at cycle t. */
    void doRead(Cycle t, bool autoPre, const TimingParams &tp);

    /** Apply a column write (optionally auto-precharging) at cycle t. */
    void doWrite(Cycle t, bool autoPre, const TimingParams &tp);

    /** Apply an explicit PRE at cycle t. */
    void doPrecharge(Cycle t, const TimingParams &tp);

    /** Push nextAct out to at least cycle t (refresh / power-down). */
    void blockUntil(Cycle t);

    /** Reset to the power-on state. */
    void reset();

    template <class Self, class Ar>
    static void io(Self &self, Ar &ar)
    {
        ar.io(self.openRow_, self.nextAct_, self.nextRead_,
              self.nextWrite_, self.nextPre_);
    }

  private:
    unsigned openRow_ = kNoRow;
    Cycle nextAct_ = 0;
    Cycle nextRead_ = 0;
    Cycle nextWrite_ = 0;
    Cycle nextPre_ = 0;
};

} // namespace memsec::dram

#endif // MEMSEC_DRAM_BANK_HH
