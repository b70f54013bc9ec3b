#include "mem/request.hh"

#include <sstream>

namespace memsec::mem {

const char *
reqTypeName(ReqType t)
{
    switch (t) {
      case ReqType::Read: return "read";
      case ReqType::Write: return "write";
      case ReqType::Prefetch: return "prefetch";
      case ReqType::Dummy: return "dummy";
    }
    return "???";
}

std::string
MemRequest::toString() const
{
    std::ostringstream os;
    os << reqTypeName(type) << " req" << id << " dom" << domain << " @0x"
       << std::hex << addr << std::dec << " (ch" << loc.channel << " r"
       << loc.rank << " b" << loc.bank << " row" << loc.row << " col"
       << loc.col << ")";
    return os.str();
}

} // namespace memsec::mem
