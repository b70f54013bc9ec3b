#include "sched/fs.hh"

#include <algorithm>

#include "fault/fault_injector.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::sched {

using mem::MemRequest;
using mem::ReqType;
using dram::CmdType;
using dram::Command;

namespace {

/** The level FS solves its pipeline at on a map partitioned by `part`,
 *  and that pipeline's name. Triple alternation's rotating bank groups
 *  keep adjacent slots on different banks of an unpartitioned map. */
struct Pipeline
{
    core::PartitionLevel level;
    const char *name;
};

Pipeline
pipelineFor(const FsScheduler::Params &p, mem::Partition part)
{
    using core::PartitionLevel;
    if (p.triple)
        return {PartitionLevel::Bank, "fs-triple"};
    switch (part) {
      case mem::Partition::Channel:
      case mem::Partition::Rank: return {PartitionLevel::Rank, "fs-rank"};
      case mem::Partition::Bank: return {PartitionLevel::Bank, "fs-bank"};
      case mem::Partition::None: return {PartitionLevel::None, "fs-nopart"};
    }
    panic("bad partition {}", static_cast<int>(part));
}

/** The SLA weights; by default one slot per domain per frame. */
std::vector<unsigned>
slotWeights(const FsScheduler::Params &p, unsigned domains)
{
    const std::string bad = FsScheduler::weightsError(p, domains);
    fatal_if(!bad.empty(), "{}", bad);
    if (p.slotWeights.empty())
        return std::vector<unsigned>(domains, 1);
    return p.slotWeights;
}

/** The frame `p` runs on a map partitioned by `part`. */
core::SlotTemplate
frameOf(const FsScheduler::Params &p, const dram::TimingParams &tp,
        mem::Partition part, unsigned domains, unsigned ranks)
{
    const core::PipelineSolver solver(tp);
    const Pipeline pipe = pipelineFor(p, part);
    const core::PipelineSolution sol =
        p.pinRef ? solver.solve(p.ref, pipe.level)
                 : solver.solveBest(pipe.level);
    fatal_if(!sol.feasible, "no feasible {} pipeline", pipe.name);
    return core::SlotTemplate(sol, slotWeights(p, domains),
                              p.triple ? solver.alternationFactor() : 1,
                              tp, p.refresh ? ranks : 0);
}

std::string
refreshErrorOf(const core::SlotTemplate &t)
{
    const Cycle need = t.refreshMargin() + t.refreshPause() + t.frameLength();
    if (!t.refresh() || t.timing().refi >= need)
        return "";
    return detail::format("tREFI too short for an FS refresh epoch ({} "
                          "cycles, the {}-cycle frame needs {})",
                          t.timing().refi, t.frameLength(), need);
}

} // namespace

std::string
FsScheduler::tripleError(const Params &p, mem::Partition part)
{
    if (!p.triple || part == mem::Partition::None)
        return "";
    return "triple alternation is the no-OS-support design point; use an "
           "unpartitioned address map";
}

std::string
FsScheduler::powerDownError(const Params &p, mem::Partition part)
{
    if (!p.powerDown || part == mem::Partition::Rank ||
        part == mem::Partition::Channel)
        return "";
    return "the power-down optimisation requires rank partitioning (a "
           "shared rank's idleness would leak other domains' state)";
}

std::string
FsScheduler::weightsError(const Params &p, unsigned domains)
{
    if (p.slotWeights.empty() || p.slotWeights.size() == domains)
        return "";
    return detail::format("{} slot weights for {} domains",
                          p.slotWeights.size(), domains);
}

std::string
FsScheduler::refreshError(const Params &p, const dram::TimingParams &tp,
                          const mem::AddressMap &map)
{
    // Ill-fitting weights are weightsError()'s to report.
    if (!p.refresh || !weightsError(p, map.numDomains()).empty())
        return "";
    return refreshErrorOf(frameOf(p, tp, map.partition(), map.numDomains(),
                                  map.geometry().ranksPerChannel));
}

FsScheduler::FsScheduler(mem::MemoryController &mc, const Params &params)
    : Scheduler(mc), params_(params),
      tmpl_(frameOf(params, mc.dram().timing(), mc.addressMap().partition(),
                    mc.numDomains(), mc.dram().numRanks())),
      plan_(mc, tmpl_.offsets())
{
    const mem::Partition part = mc.addressMap().partition();
    for (const std::string &bad :
         {tripleError(params, part), powerDownError(params, part),
          refreshErrorOf(tmpl_)})
        fatal_if(!bad.empty(), "{}", bad);

    const auto &geo = dram_.geometry();
    lastRow_.assign(
        static_cast<size_t>(geo.ranksPerChannel) * geo.banksPerRank, ~0u);
    rankDownUntil_.assign(geo.ranksPerChannel, 0);
    pdCreditCycles_.assign(geo.ranksPerChannel, 0);
    dummyRr_.assign(mc.numDomains(), 0);
    for (DomainId d = 0; d < mc.numDomains(); ++d)
        domainRng_.emplace_back(params.rngSeed * 0x9E3779B9u + d);

    if (params_.refresh)
        nextRefresh_ = dram_.timing().refi;
}

std::string
FsScheduler::name() const
{
    return pipelineFor(params_, mc_.addressMap().partition()).name;
}

void
FsScheduler::plan(std::unique_ptr<MemRequest> req, bool write, bool dummy,
                  uint64_t slot)
{
    ClosedRowPlan::Op op;
    op.write = write;
    op.dummy = dummy;
    op.actAt = tmpl_.actAt(slot, write);
    op.casAt = tmpl_.casAt(slot, write);
    op.suppressCas = dummy && params_.suppressDummies;

    const unsigned rank = req->loc.rank;
    const unsigned bank = req->loc.bank;
    const unsigned nb = dram_.geometry().banksPerRank;
    unsigned &last = lastRow_[static_cast<size_t>(rank) * nb + bank];
    if (params_.rowBufferBoost && req->loc.row == last) {
        op.suppressAct = true;
        boostedActs_.inc();
    } else {
        op.suppressAct = op.suppressCas;
    }
    last = req->loc.row;

    plan_.reserve(rank, bank, op.actAt, write);

    // Slot-skew injection: shift a real op's commands *after* the
    // reservations, so the planner's books still assume the nominal
    // template — exactly the kind of content-dependent timing drift
    // the noninterference audit exists to catch. Dummies are never
    // skewed: a fault that fires identically for every slot would
    // cancel out across co-runner sets.
    if (injector_ && !dummy) {
        if (const Cycle skew = injector_->slotSkew(op.actAt)) {
            op.actAt += skew;
            op.casAt += skew;
            skewedOps_.inc();
        }
        // Cross-coupling injection: the op drifts only when *other*
        // domains have work queued, wiring foreign backlog straight
        // into this domain's command timing. The scan below is the
        // exact cross-domain flow isolint forbids in decision paths —
        // it exists so the noninterference certifier can prove it
        // refuses a certificate when such a flow is armed.
        uint64_t foreign = 0;
        for (DomainId d = 0; d < mc_.numDomains(); ++d) {
            if (d != req->domain)
                foreign += mc_.queue(d).size();
        }
        if (const Cycle skew =
                injector_->couplingSkew(op.actAt, foreign)) {
            op.actAt += skew;
            op.casAt += skew;
            skewedOps_.inc();
        }
    }

    op.req = std::move(req);
    plan_.push(std::move(op));
}

void
FsScheduler::frameBoundary(uint64_t frame, Cycle now)
{
    if (!params_.powerDown)
        return;
    const auto &tp = dram_.timing();
    const Cycle q = frameLength();
    const Cycle frameEnd =
        tmpl_.refCycle((frame + 1) * tmpl_.slotsPerFrame());
    if (q <= tp.xp + tp.cke)
        return;

    // A rank whose owning domains have nothing queued at the frame
    // start is powered down for the whole frame (Section 5.2, energy
    // optimisation 3). Under rank partitioning this depends only on
    // the owner's own state, so it leaks nothing.
    std::vector<bool> used(dram_.numRanks(), false);
    for (DomainId d = 0; d < mc_.numDomains(); ++d) {
        const mem::TransactionQueue &qd = mc_.queue(d);
        for (size_t i = 0; i < qd.size(); ++i)
            used[qd.at(i)->loc.rank] = true;
        for (const auto &p : mc_.prefetchQueue(d))
            used[p->loc.rank] = true;
    }
    for (const auto &op : plan_.ops()) {
        if (op.req)
            used[op.req->loc.rank] = true;
    }
    for (unsigned r = 0; r < dram_.numRanks(); ++r) {
        if (!used[r] && rankDownUntil_[r] <= now) {
            rankDownUntil_[r] = frameEnd;
            pdCreditCycles_[r] += q - tp.xp - tp.cke;
        }
    }
}

void
FsScheduler::decideSlot(uint64_t slot, Cycle now)
{
    const uint64_t perFrame = tmpl_.slotsPerFrame();
    if (slot % perFrame == 0)
        frameBoundary(slot / perFrame, now);

    // The whole-epoch window [nextRefresh_ - margin, +pause) is a
    // deterministic, domain-independent blackout. One-sided: the
    // epoch rolls over only after its pause, so every slot decided
    // during it sees the armed blackout.
    if (nextRefresh_ != kNoCycle &&
        tmpl_.blackedOut(slot, nextRefresh_)) {
        skippedSlots_.inc();
        return;
    }

    const DomainId domain = tmpl_.domainOf(slot);
    if (domain == core::SlotTemplate::kPhantom) {
        skippedSlots_.inc();
        return;
    }

    // Both scopes bind only on a domain's own close slots (Section 7).
    auto admits = [&](unsigned rank, unsigned bank, Cycle act, bool w) {
        return plan_.admits(dram::RuleScope::SameBank, rank, bank, act,
                            w) &&
               plan_.admits(dram::RuleScope::SameRank, rank, bank, act, w);
    };
    auto eligible = [&](const MemRequest &r) {
        if (!tmpl_.inGroup(slot, r.loc.bank))
            return false;
        const bool w = r.type == ReqType::Write;
        const Cycle act = tmpl_.actAt(slot, w);
        if (rankDownUntil_[r.loc.rank] > now)
            return false;
        return admits(r.loc.rank, r.loc.bank, act, w);
    };

    // 1. A real transaction from this domain's queue, oldest first.
    mem::TransactionQueue &q = mc_.queue(domain);
    if (MemRequest *r = q.findOldest(eligible)) {
        if (r != q.head())
            hazardDeferrals_.inc();
        const bool w = r->type == ReqType::Write;
        auto owned = q.take(r);
        owned->firstCommand = tmpl_.actAt(slot, w);
        realOps_.inc();
        plan(std::move(owned), w, false, slot);
        return;
    }
    if (!q.empty())
        hazardDeferrals_.inc();

    // 2. A prefetch, if the optimisation is enabled (Section 5.2).
    if (params_.prefetchInDummies) {
        auto &pq = mc_.prefetchQueue(domain);
        for (auto it = pq.begin(); it != pq.end(); ++it) {
            if (eligible(**it)) {
                auto owned = std::move(*it);
                pq.erase(it);
                owned->firstCommand = tmpl_.actAt(slot, false);
                prefetchOps_.inc();
                plan(std::move(owned), false, false, slot);
                return;
            }
        }
    }

    // 3. A dummy read to an idle bank the domain owns — or nothing at
    //    all if the rank is powered down for this frame.
    const auto &ranks = mc_.addressMap().ranksOf(domain);
    const auto &banks = mc_.addressMap().banksOf(domain);
    const size_t combos = ranks.size() * banks.size();
    for (size_t tries = 0; tries < combos; ++tries) {
        const size_t cursor = (dummyRr_[domain] + tries) % combos;
        const unsigned bank = banks[cursor % banks.size()];
        const unsigned rank = ranks[cursor / banks.size()];
        if (!tmpl_.inGroup(slot, bank))
            continue;
        if (rankDownUntil_[rank] > now) {
            // Powered-down rank: the slot is deliberately left empty.
            skippedSlots_.inc();
            return;
        }
        if (!admits(rank, bank, tmpl_.actAt(slot, false), false))
            continue;
        dummyRr_[domain] = cursor + 1;
        auto dummy = std::make_unique<MemRequest>();
        dummy->type = ReqType::Dummy;
        dummy->domain = domain;
        dummy->arrival = now;
        dummy->loc.rank = rank;
        dummy->loc.bank = bank;
        dummy->loc.row = params_.rowBufferBoost
                             ? lastRow_[static_cast<size_t>(rank) *
                                            dram_.geometry().banksPerRank +
                                        bank]
                             : static_cast<unsigned>(
                                   domainRng_[domain].below(
                                       dram_.geometry().rowsPerBank));
        if (dummy->loc.row == ~0u)
            dummy->loc.row = 0;
        dummyOps_.inc();
        mc_.noteDummy();
        plan(std::move(dummy), false, true, slot);
        return;
    }
    // Only reachable at very low thread counts, where rank-level
    // turnaround windows can exclude every placement; the slot is
    // deterministically skipped.
    skippedSlots_.inc();
}

void
FsScheduler::tick(Cycle now)
{
    if (nextRefresh_ != kNoCycle && now >= nextRefresh_) {
        // Issue one REF per cycle until every rank is refreshed; the
        // epoch only rolls over once the last rank's tRFC elapsed, so
        // the slot blackout below stays armed throughout.
        if (refreshRankCursor_ < dram_.numRanks()) {
            dram_.issue(Command{CmdType::Ref, refreshRankCursor_, 0, 0,
                                0, false},
                        now);
            ++refreshRankCursor_;
            return;
        }
        if (now >= nextRefresh_ + tmpl_.refreshPause()) {
            nextRefresh_ += dram_.timing().refi;
            refreshRankCursor_ = 0;
        }
    }
    const unsigned l = tmpl_.spacing();
    if (now % l == 0)
        decideSlot(now / l, now);
    plan_.issueDue(now);
}

Cycle
FsScheduler::nextWakeCycle(Cycle now) const
{
    const Cycle next = now + 1;
    Cycle wake = kNoCycle;
    if (nextRefresh_ != kNoCycle) {
        if (next >= nextRefresh_) {
            // Mid-epoch: the REF burst issues one command per cycle,
            // and the epoch rollover must happen at its exact cycle
            // (a slot decided against a stale nextRefresh_ would see
            // the blackout armed when the naive loop would not).
            if (refreshRankCursor_ < dram_.numRanks())
                return next;
            wake = nextRefresh_ + tmpl_.refreshPause();
        } else {
            wake = nextRefresh_;
        }
    }
    // Every multiple of l is a slot decision, even when it only
    // counts a blacked-out, phantom or powered-down slot.
    const unsigned l = tmpl_.spacing();
    wake = std::min(wake, (next + l - 1) / l * l);
    wake = std::min(wake, plan_.nextCommandCycle());
    return std::max(wake, next);
}

void
FsScheduler::finalize(Cycle now)
{
    (void)now;
    // Move power-down credit cycles from precharge standby to
    // power-down in the energy books (the commands themselves were
    // never simulated; Section 5.2 argues the command bus has free
    // cycles for PDE/PDX in every interval).
    for (unsigned r = 0; r < dram_.numRanks(); ++r) {
        dram_.creditPowerDown(r, pdCreditCycles_[r]);
        pdCreditCycles_[r] = 0;
    }
}

void
FsScheduler::registerStats(StatGroup &group) const
{
    group.add("real_ops", &realOps_, "slots serving real transactions");
    group.add("dummy_ops", &dummyOps_, "slots serving dummy operations");
    group.add("prefetch_ops", &prefetchOps_,
              "slots serving prefetch operations");
    group.add("skipped_slots", &skippedSlots_,
              "phantom or powered-down slots");
    group.add("hazard_deferrals", &hazardDeferrals_,
              "head-of-queue passed over for a safe transaction");
    group.add("boosted_acts", &boostedActs_,
              "activates suppressed by the row-buffer boost");
    group.add("skewed_ops", &skewedOps_,
              "operations shifted by slot-skew fault injection");
    group.addFormula(
        "dummy_fraction",
        [this] {
            const double total = static_cast<double>(
                realOps_.value() + dummyOps_.value() +
                prefetchOps_.value());
            return total > 0 ? dummyOps_.value() / total : 0.0;
        },
        "fraction of issued slots that were dummies");
}

template <class Self, class Ar>
void
FsScheduler::io(Self &self, Ar &ar)
{
    ar.section("fs/v3");
    ar.io(self.plan_);
    ar.sized(self.lastRow_, "last-row table size mismatch");
    ar.sized(self.domainRng_, "domain RNG count mismatch");
    ar.sized(self.dummyRr_, "dummy cursor count mismatch");
    ar.sized(self.rankDownUntil_, "rank power-down count mismatch");
    ar.sized(self.pdCreditCycles_, "power-down credit count mismatch");
    ar.io(self.nextRefresh_, self.refreshRankCursor_, self.realOps_,
          self.dummyOps_, self.prefetchOps_, self.skippedSlots_,
          self.hazardDeferrals_, self.boostedActs_, self.skewedOps_);
}

void
FsScheduler::saveState(Serializer &s) const
{
    io(*this, s);
}

void
FsScheduler::restoreState(Deserializer &d)
{
    io(*this, d);
}

} // namespace memsec::sched
