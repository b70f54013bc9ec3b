#include "sched/fs_reordered.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::sched {

using mem::MemRequest;
using mem::ReqType;
using dram::CmdType;
using dram::Command;

FsReorderedScheduler::FsReorderedScheduler(mem::MemoryController &mc,
                                           const Params &params)
    : Scheduler(mc), params_(params)
{
    const core::PipelineSolver solver(dram_.timing());
    sol_ = solver.solveReordered(mc.numDomains());
    off_ = solver.offsets(core::PeriodicRef::Data);
    q_ = sol_.q;

    const int minOff = std::min({off_.actRead, off_.actWrite,
                                 off_.casRead, off_.casWrite, 0});
    lead_ = static_cast<Cycle>(-minOff);

    const auto &geo = dram_.geometry();
    plannedBankFree_.assign(
        static_cast<size_t>(geo.ranksPerChannel) * geo.banksPerRank, 0);
    dummyRr_.assign(mc.numDomains(), 0);
    for (DomainId d = 0; d < mc.numDomains(); ++d)
        domainRng_.emplace_back(params.rngSeed * 0x517cc1b7u + d);
}

bool
FsReorderedScheduler::bankFree(unsigned rank, unsigned bank,
                               Cycle actAt) const
{
    const unsigned nb = dram_.geometry().banksPerRank;
    return actAt >=
           plannedBankFree_[static_cast<size_t>(rank) * nb + bank];
}

void
FsReorderedScheduler::reserveBank(unsigned rank, unsigned bank,
                                  Cycle actAt, Cycle casAt, bool write)
{
    const auto &tp = dram_.timing();
    const Cycle preDone =
        write ? casAt + tp.cwd + tp.burst + tp.wr + tp.rp
              : std::max(casAt + tp.rtp + tp.rp, actAt + tp.rc);
    const unsigned nb = dram_.geometry().banksPerRank;
    plannedBankFree_[static_cast<size_t>(rank) * nb + bank] =
        std::max(actAt + tp.rc, preDone);
}

std::unique_ptr<MemRequest>
FsReorderedScheduler::makeDummy(DomainId domain, bool write, Cycle actAt,
                                Cycle now)
{
    const auto &ranks = mc_.addressMap().ranksOf(domain);
    const auto &banks = mc_.addressMap().banksOf(domain);
    const size_t combos = ranks.size() * banks.size();
    for (size_t tries = 0; tries < combos; ++tries) {
        const size_t cursor = (dummyRr_[domain] + tries) % combos;
        const unsigned bank = banks[cursor % banks.size()];
        const unsigned rank = ranks[cursor / banks.size()];
        if (!bankFree(rank, bank, actAt))
            continue;
        dummyRr_[domain] = cursor + 1;
        auto dummy = mc_.acquireRequest();
        dummy->type = write ? ReqType::Write : ReqType::Dummy;
        dummy->domain = domain;
        dummy->arrival = now;
        dummy->loc.rank = rank;
        dummy->loc.bank = bank;
        dummy->loc.row = static_cast<unsigned>(
            domainRng_[domain].below(dram_.geometry().rowsPerBank));
        return dummy;
    }
    panic("reordered FS: no dummy placement for domain {}", domain);
}

void
FsReorderedScheduler::decideInterval(uint64_t interval, Cycle now)
{
    const unsigned n = mc_.numDomains();
    const Cycle base = interval * q_ + lead_;
    const Cycle nextBase = base + q_;

    // Tentative pick per domain: the head of its queue (the shaped
    // one-transaction-per-interval injection); read/write typing of
    // the pick fixes the slot order.
    struct Pick
    {
        DomainId domain = 0;
        bool write = false;
    };
    std::vector<Pick> reads;
    std::vector<Pick> writes;
    for (DomainId d = 0; d < n; ++d) {
        const MemRequest *head = mc_.queue(d).head();
        const bool w = head && head->type == ReqType::Write;
        if (w)
            writes.push_back({d, true});
        else
            reads.push_back({d, false});
    }

    // Assign data slots: reads first, then writes (Section 4.2).
    std::vector<Pick> order = reads;
    order.insert(order.end(), writes.begin(), writes.end());

    // Eligibility is judged at the interval's EARLIEST possible act
    // cycle, not the op's actual slot position: the position depends
    // on the other domains' read/write mix, so a position-sensitive
    // pick would leak it. Under bank partitioning plannedBankFree of
    // a domain's banks is a function of that domain's own history
    // only, so this predicate is leak-free.
    const Cycle earliestAct =
        base + std::min(off_.actRead, off_.actWrite);

    for (unsigned i = 0; i < order.size(); ++i) {
        const Pick &p = order[i];
        const Cycle data = base + static_cast<Cycle>(i) * sol_.spacing;
        const Cycle actAt =
            data + (p.write ? off_.actWrite : off_.actRead);
        const Cycle casAt =
            data + (p.write ? off_.casWrite : off_.casRead);

        // Oldest safe same-type transaction from the domain; falling
        // back to a same-type dummy keeps the read/write split (and
        // hence the whole command template) unchanged.
        mem::TransactionQueue &q = mc_.queue(p.domain);
        MemRequest *r = q.findOldest([&](const MemRequest &cand) {
            return (cand.type == ReqType::Write) == p.write &&
                   bankFree(cand.loc.rank, cand.loc.bank, earliestAct);
        });

        PlannedOp op;
        op.write = p.write;
        op.actAt = actAt;
        op.casAt = casAt;
        if (r) {
            if (r != q.head())
                hazardDeferrals_.inc();
            op.req = q.take(r);
            op.req->firstCommand = actAt;
            op.dummy = false;
            realOps_.inc();
        } else {
            if (!q.empty())
                hazardDeferrals_.inc();
            op.req = makeDummy(p.domain, p.write, earliestAct, now);
            op.dummy = true;
            dummyOps_.inc();
            mc_.noteDummy();
        }
        // Reads return en masse at the end of the interval so the
        // read/write reordering cannot modulate observed latency.
        op.completeAt =
            p.write ? casAt + dram_.timing().cwd + dram_.timing().burst
                    : nextBase;
        // The bank reservation must be position-independent too (the
        // actual position depends on the other domains' mix), so it
        // assumes the op sat in the interval's LAST slot. Together
        // with the earliest-slot eligibility test this brackets every
        // real placement.
        const Cycle worstData =
            base + static_cast<Cycle>(n - 1) * sol_.spacing;
        reserveBank(op.req->loc.rank, op.req->loc.bank,
                    worstData + (p.write ? off_.actWrite : off_.actRead),
                    worstData + (p.write ? off_.casWrite : off_.casRead),
                    p.write);
        planned_.push_back(std::move(op));
    }
}

void
FsReorderedScheduler::issueDue(Cycle now)
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
            dram_.issue(cas, now);
            mc_.noteBurst(op.dummy);
            mc_.finishRequest(std::move(op.req), op.completeAt);
            return;
        }
        if (op.actAt > now && op.casAt > now)
            break;
    }
}

void
FsReorderedScheduler::tick(Cycle now)
{
    if (now % q_ == 0)
        decideInterval(now / q_, now);
    issueDue(now);
    while (!planned_.empty() && !planned_.front().req)
        planned_.pop_front();
}

Cycle
FsReorderedScheduler::nextWakeCycle(Cycle now) const
{
    const Cycle next = now + 1;
    // Interval decisions happen at every multiple of q.
    Cycle wake = (next + q_ - 1) / q_ * q_;
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
FsReorderedScheduler::registerStats(StatGroup &group) const
{
    group.add("real_ops", &realOps_, "slots serving real transactions");
    group.add("dummy_ops", &dummyOps_, "slots serving dummy operations");
    group.add("hazard_deferrals", &hazardDeferrals_,
              "head-of-queue passed over for a safe transaction");
}

void
FsReorderedScheduler::saveState(Serializer &s) const
{
    s.section("fs-reordered");
    s.putU64(planned_.size());
    for (const PlannedOp &op : planned_) {
        s.putBool(op.req != nullptr);
        if (op.req)
            mem::serializeRequest(s, *op.req);
        s.putBool(op.write);
        s.putBool(op.dummy);
        s.putU64(op.actAt);
        s.putU64(op.casAt);
        s.putU64(op.completeAt);
        s.putBool(op.actIssued);
    }
    s.putU64(plannedBankFree_.size());
    for (Cycle c : plannedBankFree_)
        s.putU64(c);
    s.putU64(domainRng_.size());
    for (const Rng &rng : domainRng_) {
        uint64_t st[4];
        rng.getState(st);
        for (uint64_t w : st)
            s.putU64(w);
    }
    s.putU64(dummyRr_.size());
    for (size_t c : dummyRr_)
        s.putU64(c);
    realOps_.saveState(s);
    dummyOps_.saveState(s);
    hazardDeferrals_.saveState(s);
}

void
FsReorderedScheduler::restoreState(Deserializer &d)
{
    d.section("fs-reordered");
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
        op.dummy = d.getBool();
        op.actAt = d.getU64();
        op.casAt = d.getU64();
        op.completeAt = d.getU64();
        op.actIssued = d.getBool();
        planned_.push_back(std::move(op));
    }
    if (d.getU64() != plannedBankFree_.size())
        d.fail("planned bank count mismatch");
    for (Cycle &c : plannedBankFree_)
        c = d.getU64();
    if (d.getU64() != domainRng_.size())
        d.fail("domain RNG count mismatch");
    for (Rng &rng : domainRng_) {
        uint64_t st[4];
        for (uint64_t &w : st)
            w = d.getU64();
        rng.setState(st);
    }
    if (d.getU64() != dummyRr_.size())
        d.fail("dummy cursor count mismatch");
    for (size_t &c : dummyRr_)
        c = d.getU64();
    realOps_.restoreState(d);
    dummyOps_.restoreState(d);
    hazardDeferrals_.restoreState(d);
}

} // namespace memsec::sched
