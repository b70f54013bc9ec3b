#include "core/slot_schedule.hh"

#include <algorithm>
#include <cstdlib>

#include "util/logging.hh"

namespace memsec::core {

Cycle
SlotTemplate::leadOf(const SlotOffsets &off)
{
    const int minOff = std::min({off.actRead, off.actWrite, off.casRead,
                                 off.casWrite, 0});
    return static_cast<Cycle>(-minOff);
}

SlotTemplate::SlotTemplate(const PipelineSolution &sol,
                           const std::vector<unsigned> &weights,
                           unsigned groups, const dram::TimingParams &tp,
                           unsigned refreshRanks)
    : sol_(sol), tp_(tp), numDomains_(static_cast<unsigned>(weights.size())),
      groups_(groups), lead_(leadOf(sol.offsets))
{
    fatal_if(sol.l == 0, "cannot build a slot template from an "
                         "infeasible pipeline (l = 0)");
    fatal_if(groups == 0, "bank group count must be >= 1");

    // Interleave domains round-robin by weight.
    std::vector<unsigned> remaining = weights;
    bool any = true;
    while (any) {
        any = false;
        for (DomainId d = 0; d < numDomains_; ++d) {
            if (remaining[d] > 0) {
                --remaining[d];
                table_.push_back(d);
                any = true;
            }
        }
    }
    fatal_if(table_.empty(), "slot table is empty");

    // Bank-group rotation (slot % groups) must visit every group for
    // every domain; pad the frame with a phantom slot when the frame
    // length is a multiple of the group count.
    if (groups_ > 1 && table_.size() % groups_ == 0)
        table_.push_back(kPhantom);

    if (refreshRanks > 0) {
        // No slot may have commands or auto-precharge activity inside
        // the epoch: quiet-down begins one worst-case transaction
        // footprint before the REF burst.
        refreshMargin_ = tp_.actToActWrA() + lead_;
        refreshPause_ = refreshRanks + tp_.rfc;
    }
}

bool
SlotTemplate::sameBankHazard() const
{
    // The closest two slots of one domain, across the frame edge too.
    uint64_t closest = slotsPerFrame();
    for (uint64_t s = 0; s < slotsPerFrame(); ++s) {
        for (uint64_t d = 1; d < closest && table_[s] != kPhantom; ++d) {
            if (domainOf(s + d) == table_[s])
                closest = d;
        }
    }
    // Command skew between a write slot and a read slot shrinks the
    // worst-case ACT-to-ACT gap by |actR - actW|.
    const long skew = std::abs(static_cast<long>(sol_.offsets.actRead) -
                               static_cast<long>(sol_.offsets.actWrite));
    const long worstGap = static_cast<long>(closest * sol_.l) - skew;
    return worstGap < dram::TimingRuleTable(tp_).sameBankReuse();
}

std::string
renderTimeline(const SlotTemplate &t, const std::vector<bool> &writes,
               Cycle span, char label)
{
    std::string out;
    for (uint64_t s = 0; s < writes.size(); ++s) {
        const bool w = writes[s];
        std::string line(span, '.');
        const auto mark = [&](Cycle c, char ch) {
            if (c < span)
                line[c] = ch;
        };
        mark(t.actAt(s, w), 'A');
        mark(t.casAt(s, w), w ? 'W' : 'C');
        const Cycle data = t.dataAt(s, w);
        for (Cycle c = data; c < data + t.timing().burst; ++c)
            mark(c, 'd');
        out += label + std::to_string(s) + (w ? " WR " : " RD ") + line +
               "\n";
    }
    return out;
}

} // namespace memsec::core
