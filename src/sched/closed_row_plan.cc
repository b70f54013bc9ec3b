#include "sched/closed_row_plan.hh"

#include <algorithm>

#include "dram/timing_rules.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::sched {

using dram::CmdType;
using dram::Command;
using dram::RuleId;

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
    const long rc = rules.gap(RuleId::Rc);
    reuseRead_ = static_cast<Cycle>(
        std::max(rc, rules.gap(RuleId::ActToActRdA)));
    reuseWrite_ = static_cast<Cycle>(
        std::max(rc, rules.gap(RuleId::ActToActWrA)));

    const auto &geo = dram_.geometry();
    banksPerRank_ = geo.banksPerRank;
    bankFree_.assign(
        static_cast<size_t>(geo.ranksPerChannel) * geo.banksPerRank, 0);
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

void
ClosedRowPlan::saveState(Serializer &s) const
{
    s.putU64(ops_.size());
    for (const Op &op : ops_) {
        s.putBool(op.req != nullptr);
        if (op.req)
            mem::serializeRequest(s, *op.req);
        s.putBool(op.write);
        s.putBool(op.dummy);
        s.putBool(op.suppressAct);
        s.putBool(op.suppressCas);
        s.putU64(op.actAt);
        s.putU64(op.casAt);
        s.putBool(op.actIssued);
        s.putU64(op.completeAt);
    }
    s.putU64(bankFree_.size());
    for (Cycle c : bankFree_)
        s.putU64(c);
}

void
ClosedRowPlan::restoreState(Deserializer &d)
{
    ops_.clear();
    const uint64_t nops = d.getU64();
    for (uint64_t i = 0; i < nops; ++i) {
        Op op;
        if (d.getBool()) {
            bool hadClient = false;
            op.req = mem::deserializeRequest(d, &hadClient);
            if (hadClient)
                op.req->client = mc_.clientFor(op.req->domain);
        }
        op.write = d.getBool();
        op.dummy = d.getBool();
        op.suppressAct = d.getBool();
        op.suppressCas = d.getBool();
        op.actAt = d.getU64();
        op.casAt = d.getU64();
        op.actIssued = d.getBool();
        op.completeAt = d.getU64();
        ops_.push_back(std::move(op));
    }
    if (d.getU64() != bankFree_.size())
        d.fail("planned bank count mismatch");
    for (Cycle &c : bankFree_)
        c = d.getU64();
}

} // namespace memsec::sched
