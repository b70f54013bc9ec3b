#include "sched/closed_row_plan.hh"

#include <algorithm>

#include "dram/timing_rules.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::sched {

using dram::CmdEdge;
using dram::CmdType;
using dram::Command;
using dram::RuleId;
using dram::RuleScope;

ClosedRowPlan::ClosedRowPlan(mem::MemoryController &mc,
                             const core::SlotOffsets &off)
    : mc_(mc), dram_(mc.dram())
{
    const dram::TimingRuleTable rules(dram_.timing());
    const long rcd = rules.gap(RuleId::Rcd);
    panic_if(off.casRead - off.actRead != rcd ||
                 off.casWrite - off.actWrite != rcd,
             "closed-row template must put the CAS tRCD = {} after the "
             "ACT (read {}, write {})",
             rcd, off.casRead - off.actRead, off.casWrite - off.actWrite);
    edgeAt_[0] = {0, static_cast<Cycle>(rcd),
                  static_cast<Cycle>(off.dataRead - off.actRead)};
    edgeAt_[1] = {0, static_cast<Cycle>(rcd),
                  static_cast<Cycle>(off.dataWrite - off.actWrite)};

    for (const dram::PairRule &r : rules.pairRules()) {
        if (r.scope == RuleScope::AnyPair)
            continue;
        if (r.actWindow == 1) {
            rows_.push_back(r);
            continue;
        }
        // One ring per rank holds every planned ACT.
        panic_if(window_.actWindow > 1 || r.scope != RuleScope::SameRank ||
                     r.from != CmdEdge::Act ||
                     r.earlier != dram::TypePred::Any,
                 "window rule {} must be the only one, over every ACT of "
                 "a rank",
                 dram::ruleName(r.id));
        window_ = r;
    }

    const auto &geo = dram_.geometry();
    banksPerRank_ = geo.banksPerRank;
    banks_ = geo.ranksPerChannel * geo.banksPerRank;
    horizon_.assign((banks_ + geo.ranksPerChannel) * kSlots, 0);
    windowEnds_.assign(
        static_cast<size_t>(geo.ranksPerChannel) * window_.actWindow, 0);
}

size_t
ClosedRowPlan::slotsOf(RuleScope scope, unsigned rank, unsigned bank) const
{
    panic_if(scope == RuleScope::AnyPair,
             "the plan shadows only bank and rank scopes");
    return (scope == RuleScope::SameRank
                ? banks_ + rank
                : static_cast<size_t>(rank) * banksPerRank_ + bank) *
           kSlots;
}

bool
ClosedRowPlan::admits(RuleScope scope, unsigned rank, unsigned bank,
                      Cycle actAt, bool write) const
{
    const Cycle *h = &horizon_[slotsOf(scope, rank, bank)];
    for (size_t e = 0; e < 3; ++e) {
        if (actAt + edgeAt_[write][e] < h[e * 2 + write])
            return false;
    }
    return true;
}

void
ClosedRowPlan::reserve(unsigned rank, unsigned bank, Cycle actAt,
                       bool write)
{
    // A row binding a later op's `to` edge at `need` raises the
    // horizon of that edge for each later type the row matches.
    const auto raise = [&](const dram::PairRule &r, Cycle need) {
        Cycle *h = &horizon_[slotsOf(r.scope, rank, bank) +
                             static_cast<size_t>(r.to) * 2];
        for (bool later : {false, true}) {
            if (dram::typeMatches(r.later, later))
                h[later] = std::max(h[later], need);
        }
    };
    for (const dram::PairRule &r : rows_) {
        if (dram::typeMatches(r.earlier, write))
            raise(r, actAt + edgeAt_[write][static_cast<size_t>(r.from)] +
                         static_cast<Cycle>(r.minGap));
    }

    if (window_.actWindow == 1)
        return;
    // ring[0] closes the window of the actWindow-th ACT before the
    // next one; it stays 0 until the rank has had that many ACTs.
    Cycle *ring = &windowEnds_[rank * window_.actWindow];
    std::copy(ring + 1, ring + window_.actWindow, ring);
    ring[window_.actWindow - 1] = actAt + static_cast<Cycle>(window_.minGap);
    raise(window_, ring[0]);
}

void
ClosedRowPlan::issueDue(Cycle now)
{
    // A command issues at the first cycle at or after its planned one.
    // Planned templates never collide on the command bus, so this is
    // exact in a healthy run; a skewed op can land on another op's
    // cycle, or pass an op planned after it, and is then delayed a
    // cycle rather than skipped forever. So every op is scanned: the
    // plan is in decision order, not in command order.
    for (Op &op : ops_) {
        if (!op.actIssued && op.actAt <= now) {
            panic_if(!op.req, "planned op lost its request");
            Command act{CmdType::Act, op.req->loc.rank, op.req->loc.bank,
                        op.req->loc.row, op.req->id, op.suppressAct};
            dram_.issue(act, now);
            op.actIssued = true;
            break;
        }
        if (op.actIssued && op.req && op.casAt <= now) {
            const CmdType type = op.write ? CmdType::WrA : CmdType::RdA;
            Command cas{type, op.req->loc.rank, op.req->loc.bank,
                        op.req->loc.row, op.req->id, op.suppressCas};
            const dram::IssueResult res = dram_.issue(cas, now);
            mc_.noteBurst(op.dummy);
            mc_.finishRequest(std::move(op.req), op.completeAt == kNoCycle
                                                     ? res.dataEnd
                                                     : op.completeAt);
            break;
        }
    }
    while (!ops_.empty() && !ops_.front().req)
        ops_.pop_front();
}

Cycle
ClosedRowPlan::nextCommandCycle() const
{
    Cycle wake = kNoCycle;
    for (const Op &op : ops_) {
        if (!op.actIssued)
            wake = std::min(wake, op.actAt);
        else if (op.req)
            wake = std::min(wake, op.casAt);
    }
    return wake;
}

template <class Self, class Ar>
void
ClosedRowPlan::io(Self &self, Ar &ar)
{
    const auto clientOf = [&self](const mem::MemRequest &req) {
        return self.mc_.clientFor(req.domain);
    };
    ar.seq(self.ops_, [&](auto &op) {
        bool hasReq = op.req != nullptr;
        ar.io(hasReq);
        if (hasReq)
            mem::ioRequest(op.req, ar, clientOf);
        ar.io(op.write, op.dummy, op.suppressAct, op.suppressCas, op.actAt,
              op.casAt, op.actIssued, op.completeAt);
    });
    ar.sized(self.horizon_, "planned horizon count mismatch");
    ar.sized(self.windowEnds_, "planned horizon count mismatch");
}

void
ClosedRowPlan::saveState(Serializer &s) const
{
    io(*this, s);
}

void
ClosedRowPlan::restoreState(Deserializer &d)
{
    io(*this, d);
}

} // namespace memsec::sched
