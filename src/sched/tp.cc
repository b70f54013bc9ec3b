#include "sched/tp.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::sched {

using dram::RuleId;
using mem::MemRequest;
using mem::ReqType;

namespace {

core::PipelineSolution
solveTp(const dram::TimingParams &tp, bool sharedBanks)
{
    const core::PipelineSolution sol =
        core::PipelineSolver(tp).solveBest(sharedBanks
                                               ? core::PartitionLevel::None
                                               : core::PartitionLevel::Bank);
    fatal_if(!sol.feasible, "no feasible in-turn TP pipeline");
    return sol;
}

} // namespace

TpScheduler::TpScheduler(mem::MemoryController &mc, const Params &params)
    : Scheduler(mc), params_(params),
      sharedBanks_(mc.addressMap().partition() == mem::Partition::None),
      sol_(solveTp(mc.dram().timing(), sharedBanks_)),
      plan_(mc, sol_.offsets)
{
    fatal_if(params_.turnLength == 0, "TP turn length must be nonzero");
    l_ = sol_.l;

    // Per-type footprint: cycles from the slot's ACT until every
    // piece of shared state is clean: the data burst plus the rank
    // switch, a write's CAS-to-read turnaround and, with shared banks,
    // the bank's reuse after its auto-precharge.
    const dram::TimingRuleTable rules(dram_.timing());
    const auto &off = sol_.offsets;
    const auto gap = [&](RuleId id) {
        return static_cast<unsigned>(rules.gap(id));
    };
    const unsigned bus = gap(RuleId::DataBus);
    footRead_ = off.dataRead - off.actRead + bus;
    footWrite_ = std::max(off.dataWrite - off.actWrite + bus,
                          off.casWrite - off.actWrite + gap(RuleId::Wr2Rd));
    if (sharedBanks_) {
        footRead_ = std::max(footRead_, gap(RuleId::ActToActRdA));
        footWrite_ = std::max(footWrite_, gap(RuleId::ActToActWrA));
    }
    fatal_if(footWrite_ > params_.turnLength ||
                 footRead_ > params_.turnLength,
             "TP turn length {} shorter than a transaction footprint "
             "({}/{})",
             params_.turnLength, footRead_, footWrite_);
}

DomainId
TpScheduler::activeDomain(Cycle now) const
{
    return static_cast<DomainId>((now / params_.turnLength) %
                                 mc_.numDomains());
}

Cycle
TpScheduler::turnEnd(Cycle now) const
{
    return (now / params_.turnLength + 1) * params_.turnLength;
}

void
TpScheduler::decideSlot(Cycle now)
{
    const DomainId domain = activeDomain(now);
    const Cycle tE = turnEnd(now);
    const auto &off = sol_.offsets;

    auto eligible = [&](const MemRequest &r) {
        const bool w = r.type == ReqType::Write;
        // The whole transaction must fit before the turn end...
        if (now + (w ? footWrite_ : footRead_) > tE)
            return false;
        // ...and respect same-bank reuse against earlier slots.
        return plan_.admits(dram::RuleScope::SameBank, r.loc.rank,
                            r.loc.bank,
                            now + (w ? off.actWrite : off.actRead), w);
    };

    mem::TransactionQueue &q = mc_.queue(domain);
    MemRequest *r = q.findOldest(eligible);
    if (!r) {
        idleSlots_.inc();
        return;
    }
    const bool w = r->type == ReqType::Write;
    ClosedRowPlan::Op op;
    op.write = w;
    op.actAt = now + (w ? off.actWrite : off.actRead);
    op.casAt = now + (w ? off.casWrite : off.casRead);
    op.req = q.take(r);
    op.req->firstCommand = op.actAt;
    served_.inc();
    plan_.reserve(op.req->loc.rank, op.req->loc.bank, op.actAt, w);
    plan_.push(std::move(op));
}

void
TpScheduler::tick(Cycle now)
{
    if (now % params_.turnLength == 0)
        turns_.inc();
    // Slots are anchored to the turn start so every turn offers the
    // same deterministic issue opportunities.
    if ((now % params_.turnLength) % l_ == 0)
        decideSlot(now);
    plan_.issueDue(now);
}

Cycle
TpScheduler::nextWakeCycle(Cycle now) const
{
    const Cycle next = now + 1;
    const Cycle turn = params_.turnLength;
    // Next in-turn slot; the turn boundary is itself a slot (and the
    // turn counter ticks there), so it caps the candidate.
    const Cycle turnStart = next / turn * turn;
    const Cycle inTurn = next - turnStart;
    Cycle wake = turnStart + (inTurn + l_ - 1) / l_ * l_;
    if (wake >= turnStart + turn)
        wake = turnStart + turn;
    wake = std::min(wake, plan_.nextCommandCycle());
    return std::max(wake, next);
}

void
TpScheduler::registerStats(StatGroup &group) const
{
    group.add("turns", &turns_, "TP turns elapsed");
    group.add("served", &served_, "transactions serviced");
    group.add("idle_slots", &idleSlots_,
              "turn slots with no eligible transaction");
}

template <class Self, class Ar>
void
TpScheduler::io(Self &self, Ar &ar)
{
    ar.section("tp/v3");
    ar.io(self.plan_, self.turns_, self.served_, self.idleSlots_);
}

void
TpScheduler::saveState(Serializer &s) const
{
    io(*this, s);
}

void
TpScheduler::restoreState(Deserializer &d)
{
    io(*this, d);
}

} // namespace memsec::sched
