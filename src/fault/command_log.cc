#include "fault/command_log.hh"

#include <sstream>

namespace memsec::fault {

CommandLog::CommandLog(size_t capacity) : cap_(capacity ? capacity : 1)
{
    ring_.reserve(cap_);
}

void
CommandLog::record(const dram::Command &cmd, Cycle t)
{
    if (ring_.size() < cap_) {
        ring_.push_back({cmd, t});
    } else {
        ring_[total_ % cap_] = {cmd, t};
    }
    ++total_;
}

size_t
CommandLog::size() const
{
    return ring_.size();
}

std::string
CommandLog::snapshot() const
{
    std::ostringstream os;
    os << "last " << ring_.size() << " of " << total_
       << " issued command(s):\n";
    // After wrap-around, the oldest entry sits at total_ % cap_.
    const size_t start = ring_.size() < cap_ ? 0 : total_ % cap_;
    for (size_t i = 0; i < ring_.size(); ++i) {
        const Entry &e = ring_[(start + i) % ring_.size()];
        os << "  @" << e.cycle << " " << e.cmd.toString() << "\n";
    }
    return os.str();
}

} // namespace memsec::fault
