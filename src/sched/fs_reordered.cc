#include "sched/fs_reordered.hh"

#include <algorithm>

#include "core/slot_schedule.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::sched {

using mem::MemRequest;
using mem::ReqType;

std::string
FsReorderedScheduler::partitionError(mem::Partition part)
{
    if (part != mem::Partition::None)
        return "";
    return "reordered FS spaces its slots for a map that keeps adjacent "
           "domains on different banks";
}

FsReorderedScheduler::FsReorderedScheduler(mem::MemoryController &mc,
                                           const Params &params)
    : Scheduler(mc), params_(params),
      sol_(core::PipelineSolver(mc.dram().timing())
               .solveReordered(mc.numDomains())),
      plan_(mc, sol_.offsets)
{
    const std::string bad = partitionError(mc.addressMap().partition());
    fatal_if(!bad.empty(), "{}", bad);
    q_ = sol_.q;
    lead_ = core::SlotTemplate::leadOf(sol_.offsets);

    dummyRr_.assign(mc.numDomains(), 0);
    for (DomainId d = 0; d < mc.numDomains(); ++d)
        domainRng_.emplace_back(params.rngSeed * 0x517cc1b7u + d);
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
        if (!plan_.admits(dram::RuleScope::SameBank, rank, bank, actAt,
                          write))
            continue;
        dummyRr_[domain] = cursor + 1;
        auto dummy = std::make_unique<MemRequest>();
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
    // pick would leak it. Under bank partitioning the plan's
    // bank-scope horizons of a domain's banks are a function of that
    // domain's own history only, so this predicate is leak-free.
    const auto &off = sol_.offsets;
    const Cycle earliestAct = base + std::min(off.actRead, off.actWrite);

    for (unsigned i = 0; i < order.size(); ++i) {
        const Pick &p = order[i];
        const Cycle data = base + static_cast<Cycle>(i) * sol_.spacing;
        const Cycle actAt =
            data + (p.write ? off.actWrite : off.actRead);
        const Cycle casAt =
            data + (p.write ? off.casWrite : off.casRead);

        // Oldest safe same-type transaction from the domain; falling
        // back to a same-type dummy keeps the read/write split (and
        // hence the whole command template) unchanged.
        mem::TransactionQueue &q = mc_.queue(p.domain);
        MemRequest *r = q.findOldest([&](const MemRequest &cand) {
            return (cand.type == ReqType::Write) == p.write &&
                   plan_.admits(dram::RuleScope::SameBank, cand.loc.rank,
                                cand.loc.bank, earliestAct, p.write);
        });

        ClosedRowPlan::Op op;
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
        plan_.reserve(op.req->loc.rank, op.req->loc.bank,
                      worstData + (p.write ? off.actWrite : off.actRead),
                      p.write);
        plan_.push(std::move(op));
    }
}

void
FsReorderedScheduler::tick(Cycle now)
{
    if (now % q_ == 0)
        decideInterval(now / q_, now);
    plan_.issueDue(now);
}

Cycle
FsReorderedScheduler::nextWakeCycle(Cycle now) const
{
    const Cycle next = now + 1;
    // Interval decisions happen at every multiple of q.
    const Cycle wake = std::min((next + q_ - 1) / q_ * q_,
                                plan_.nextCommandCycle());
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

template <class Self, class Ar>
void
FsReorderedScheduler::io(Self &self, Ar &ar)
{
    ar.section("fs-reordered/v3");
    ar.io(self.plan_);
    ar.sized(self.domainRng_, "domain RNG count mismatch");
    ar.sized(self.dummyRr_, "dummy cursor count mismatch");
    ar.io(self.realOps_, self.dummyOps_, self.hazardDeferrals_);
}

void
FsReorderedScheduler::saveState(Serializer &s) const
{
    io(*this, s);
}

void
FsReorderedScheduler::restoreState(Deserializer &d)
{
    io(*this, d);
}

} // namespace memsec::sched
