/**
 * @file
 * Ring buffer of recently issued DRAM commands.
 *
 * When a run dies on a panic (illegal issue, strict checker
 * violation), the single failing command is rarely enough to diagnose
 * the bug — the conflict was usually set up tens of cycles earlier.
 * DramSystem records every issued command here and dumps the last K
 * as a crash snapshot from the panic path.
 */

#ifndef MEMSEC_FAULT_COMMAND_LOG_HH
#define MEMSEC_FAULT_COMMAND_LOG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dram/command.hh"
#include "sim/types.hh"

namespace memsec::fault {

/** Fixed-capacity history of (command, issue cycle) pairs. */
class CommandLog
{
  public:
    explicit CommandLog(size_t capacity = 32);

    void record(const dram::Command &cmd, Cycle t);

    /** Entries currently held (<= capacity). */
    size_t size() const;

    /** Commands ever recorded (not capped). */
    uint64_t totalRecorded() const { return total_; }

    /** Human-readable dump, oldest to newest. */
    std::string snapshot() const;

    template <class Self, class Ar>
    static void io(Self &self, Ar &ar)
    {
        ar.section("cmdlog");
        ar.io(self.total_, self.ring_);
        if constexpr (Ar::loading) {
            if (self.ring_.size() > self.cap_)
                ar.fail("command log larger than capacity");
        }
    }

  private:
    struct Entry
    {
        dram::Command cmd;
        Cycle cycle = 0;

        template <class Self, class Ar>
        static void io(Self &self, Ar &ar)
        {
            ar.io(self.cmd, self.cycle);
        }
    };

    std::vector<Entry> ring_;
    size_t cap_ = 0;
    uint64_t total_ = 0;
};

} // namespace memsec::fault

#endif // MEMSEC_FAULT_COMMAND_LOG_HH
