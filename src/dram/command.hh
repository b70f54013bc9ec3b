/**
 * @file
 * DRAM command representation.
 */

#ifndef MEMSEC_DRAM_COMMAND_HH
#define MEMSEC_DRAM_COMMAND_HH

#include <string>

#include "sim/types.hh"

namespace memsec::dram {

/** The command vocabulary of the model. */
enum class CmdType : uint8_t
{
    Act,    ///< Activate: open a row
    Pre,    ///< Precharge: close the open row
    Rd,     ///< Column read
    RdA,    ///< Column read with auto-precharge
    Wr,     ///< Column write
    WrA,    ///< Column write with auto-precharge
    Ref,    ///< Per-rank refresh
    PdEnter, ///< Enter (precharge) power-down
    PdExit,  ///< Exit power-down
};

/** The last CmdType, for the snapshot range check. */
constexpr CmdType
enumLast(CmdType)
{
    return CmdType::PdExit;
}

/** Name string for diagnostics. */
const char *cmdName(CmdType t);

/** True for Rd/RdA/Wr/WrA. */
bool isColumn(CmdType t);

/** True for Rd/RdA. */
bool isRead(CmdType t);

/** True for Wr/WrA. */
bool isWrite(CmdType t);

/** True for RdA/WrA. */
bool isAutoPrecharge(CmdType t);

/**
 * A single DRAM command addressed to one bank (or rank for
 * Ref/PdEnter/PdExit, where bank is ignored).
 */
struct Command
{
    CmdType type = CmdType::Act;
    unsigned rank = 0;
    unsigned bank = 0;
    unsigned row = 0;       ///< meaningful for Act and column commands
    ReqId req = 0;          ///< owning request, 0 = none (dummy/refresh)
    bool suppressed = false; ///< energy-opt 1: timing kept, no real access

    std::string toString() const;

    template <class Self, class Ar>
    static void io(Self &self, Ar &ar)
    {
        ar.io(self.type, self.rank, self.bank, self.row, self.req,
              self.suppressed);
    }
};

} // namespace memsec::dram

#endif // MEMSEC_DRAM_COMMAND_HH
