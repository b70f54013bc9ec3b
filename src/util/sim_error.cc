#include "util/sim_error.hh"

#include <sstream>

#include "util/serialize.hh"

namespace memsec {

std::string
SimError::toString() const
{
    std::ostringstream os;
    os << "[" << category << "] cycle " << cycle << ": " << message;
    return os.str();
}

void
RunReport::record(SimError err)
{
    ++total_;
    ++counts_[err.category];
    if (errors_.size() < cap_)
        errors_.push_back(std::move(err));
}

uint64_t
RunReport::count(const std::string &category) const
{
    auto it = counts_.find(category);
    return it == counts_.end() ? 0 : it->second;
}

std::string
RunReport::summary() const
{
    std::ostringstream os;
    os << total_ << " recoverable error(s)\n";
    for (const auto &kv : counts_)
        os << "  " << kv.first << ": " << kv.second << "\n";
    const size_t show = errors_.size() < 5 ? errors_.size() : 5;
    for (size_t i = 0; i < show; ++i)
        os << "  " << errors_[i].toString() << "\n";
    return os.str();
}

template <class Self, class Ar>
void
RunReport::io(Self &self, Ar &ar)
{
    ar.section("report");
    ar.io(self.errors_, self.counts_, self.total_);
}

void
RunReport::saveState(Serializer &s) const
{
    io(*this, s);
}

void
RunReport::restoreState(Deserializer &d)
{
    io(*this, d);
}

} // namespace memsec
