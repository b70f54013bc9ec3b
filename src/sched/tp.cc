#include "sched/tp.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::sched {

using mem::MemRequest;
using mem::ReqType;
using dram::CmdType;
using dram::Command;

TpScheduler::TpScheduler(mem::MemoryController &mc, const Params &params)
    : Scheduler(mc), params_(params)
{
    fatal_if(params_.turnLength == 0, "TP turn length must be nonzero");

    sharedBanks_ =
        mc.addressMap().partition() == mem::Partition::None;
    const core::PipelineSolver solver(dram_.timing());
    sol_ = solver.solveBest(sharedBanks_ ? core::PartitionLevel::None
                                         : core::PartitionLevel::Bank);
    fatal_if(!sol_.feasible, "no feasible in-turn TP pipeline");
    l_ = sol_.l;

    // Per-type footprint: cycles from the slot's ACT until every
    // piece of shared state is clean (and, with shared banks, the
    // bank is precharged again).
    const auto &tp = dram_.timing();
    const unsigned dataReadDone = tp.rcd + tp.cas + tp.burst + tp.rtrs;
    const unsigned dataWriteDone = tp.rcd + tp.cwd + tp.burst + tp.rtrs;
    if (sharedBanks_) {
        const unsigned readPre =
            std::max(tp.rc, tp.rcd + tp.rtp + tp.rp);
        footRead_ = std::max(dataReadDone, readPre);
        footWrite_ = tp.rcd + tp.cwd + tp.burst + tp.wr + tp.rp;
    } else {
        footRead_ = dataReadDone;
        footWrite_ =
            std::max(dataWriteDone, tp.rcd + tp.wr2rd());
    }
    footRead_ += params_.extraDead;
    footWrite_ += params_.extraDead;
    fatal_if(footWrite_ > params_.turnLength ||
                 footRead_ > params_.turnLength,
             "TP turn length {} shorter than a transaction footprint "
             "({}/{})",
             params_.turnLength, footRead_, footWrite_);

    const auto &geo = dram_.geometry();
    plannedBankFree_.assign(
        static_cast<size_t>(geo.ranksPerChannel) * geo.banksPerRank, 0);
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

bool
TpScheduler::bankFree(unsigned rank, unsigned bank, Cycle actAt) const
{
    const unsigned nb = dram_.geometry().banksPerRank;
    return actAt >=
           plannedBankFree_[static_cast<size_t>(rank) * nb + bank];
}

void
TpScheduler::reserveBank(unsigned rank, unsigned bank, Cycle actAt,
                         Cycle casAt, bool write)
{
    const auto &tp = dram_.timing();
    const Cycle preDone =
        write ? casAt + tp.cwd + tp.burst + tp.wr + tp.rp
              : std::max(casAt + tp.rtp + tp.rp, actAt + tp.rc);
    const unsigned nb = dram_.geometry().banksPerRank;
    plannedBankFree_[static_cast<size_t>(rank) * nb + bank] =
        std::max(actAt + tp.rc, preDone);
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
        return bankFree(r.loc.rank, r.loc.bank,
                        now + (w ? off.actWrite : off.actRead));
    };

    mem::TransactionQueue &q = mc_.queue(domain);
    MemRequest *r = q.findOldest(eligible);
    if (!r) {
        idleSlots_.inc();
        return;
    }
    const bool w = r->type == ReqType::Write;
    PlannedOp op;
    op.write = w;
    op.actAt = now + (w ? off.actWrite : off.actRead);
    op.casAt = now + (w ? off.casWrite : off.casRead);
    op.req = q.take(r);
    op.req->firstCommand = op.actAt;
    served_.inc();
    reserveBank(op.req->loc.rank, op.req->loc.bank, op.actAt, op.casAt,
                w);
    planned_.push_back(std::move(op));
}

void
TpScheduler::issueDue(Cycle now)
{
    for (auto &op : planned_) {
        if (!op.actIssued && op.actAt == now) {
            Command act{CmdType::Act, op.req->loc.rank, op.req->loc.bank,
                        op.req->loc.row, op.req->id, false};
            dram_.issue(act, now);
            op.actIssued = true;
            return;
        }
        if (op.actIssued && op.req && op.casAt == now) {
            const CmdType type = op.write ? CmdType::WrA : CmdType::RdA;
            Command cas{type, op.req->loc.rank, op.req->loc.bank,
                        op.req->loc.row, op.req->id, false};
            const dram::IssueResult res = dram_.issue(cas, now);
            mc_.noteBurst(false);
            mc_.finishRequest(std::move(op.req), res.dataEnd);
            return;
        }
        if (op.actAt > now && op.casAt > now)
            break;
    }
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
    issueDue(now);
    while (!planned_.empty() && !planned_.front().req)
        planned_.pop_front();
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
    for (const auto &op : planned_) {
        if (!op.actIssued) {
            if (op.actAt >= next)
                wake = std::min(wake, op.actAt);
        } else if (op.req && op.casAt >= next) {
            wake = std::min(wake, op.casAt);
        }
    }
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

void
TpScheduler::saveState(Serializer &s) const
{
    s.section("tp");
    s.putU64(planned_.size());
    for (const PlannedOp &op : planned_) {
        s.putBool(op.req != nullptr);
        if (op.req)
            mem::serializeRequest(s, *op.req);
        s.putBool(op.write);
        s.putU64(op.actAt);
        s.putU64(op.casAt);
        s.putBool(op.actIssued);
    }
    s.putU64(plannedBankFree_.size());
    for (Cycle c : plannedBankFree_)
        s.putU64(c);
    turns_.saveState(s);
    served_.saveState(s);
    idleSlots_.saveState(s);
}

void
TpScheduler::restoreState(Deserializer &d)
{
    d.section("tp");
    planned_.clear();
    const uint64_t nops = d.getU64();
    for (uint64_t i = 0; i < nops; ++i) {
        PlannedOp op;
        if (d.getBool()) {
            bool hadClient = false;
            op.req = mem::deserializeRequest(d, &hadClient);
            if (hadClient)
                op.req->client = mc_.clientFor(op.req->domain);
        }
        op.write = d.getBool();
        op.actAt = d.getU64();
        op.casAt = d.getU64();
        op.actIssued = d.getBool();
        planned_.push_back(std::move(op));
    }
    if (d.getU64() != plannedBankFree_.size())
        d.fail("planned bank count mismatch");
    for (Cycle &c : plannedBankFree_)
        c = d.getU64();
    turns_.restoreState(d);
    served_.restoreState(d);
    idleSlots_.restoreState(d);
}

} // namespace memsec::sched
