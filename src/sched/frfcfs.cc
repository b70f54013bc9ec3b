#include "sched/frfcfs.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::sched {

using mem::MemRequest;
using dram::CmdType;

FrFcfsEngine::FrFcfsEngine(mem::MemoryController &mc, const Options &opt)
    : mc_(mc), dram_(mc.dram()), opt_(opt),
      banksPerRank_(dram_.geometry().banksPerRank),
      index_(mc.queueTotals().banks)
{
    for (DomainId d = 0; d < mc.numDomains(); ++d)
        queues_.push_back(&mc.queue(d));
    for (std::vector<BankPick> &picks : picks_) {
        for (unsigned flat = 0; flat < index_.numBanks(); ++flat)
            picks.push_back({.rank = flat / banksPerRank_,
                             .bank = flat % banksPerRank_});
    }
}

namespace {

/** `a` came before `b` (or there is no `b`). */
bool
older(const mem::BankIndex::Entry &a, const mem::BankIndex::Entry *b)
{
    return !b || a.arrival < b->arrival ||
           (a.arrival == b->arrival && a.id < b->id);
}

} // namespace

bool
FrFcfsEngine::nextDrainMode() const
{
    const mem::QueueTotals &t = mc_.queueTotals();
    if (drainingWrites_)
        return t.writes > opt_.writeLoWatermark;
    return t.writes >= opt_.writeHiWatermark ||
           (t.reads == 0 && t.writes > 0);
}

uint64_t
FrFcfsEngine::epoch() const
{
    return dram_.commandsIssued() + mc_.queueTotals().mutations;
}

const FrFcfsEngine::BankPick &
FrFcfsEngine::refreshPick(bool writes, unsigned flat, uint64_t busVersion)
{
    BankPick &p = picks_[writes][flat];
    const uint64_t version = dram_.rankVersion(p.rank);
    if (p.rankVersion != version) {
        const dram::Bank &bk = dram_.rank(p.rank).bank(p.bank);
        p.rankVersion = version;
        p.open = bk.isOpen();
        p.openRow = bk.openRow();
        p.serial = ~0ull;
        p.missKnown = false;
        p.hitBusVersion = ~0ull;
    }
    const mem::BankIndex::Bucket &b = index_.bucket(writes, flat);
    if (p.serial != b.serial) {
        p.serial = b.serial;
        p.hit = p.miss = nullptr;
        for (const Entry &e : b.entries) {
            const Entry *&best =
                p.open && e.row == p.openRow ? p.hit : p.miss;
            if (older(e, best))
                best = &e;
        }
    }
    if (p.hit && p.hitBusVersion != busVersion) {
        p.hitAt = dram_.earliestIssue({writes ? CmdType::Wr : CmdType::Rd,
                                       p.rank, p.bank, p.openRow, 0, false});
        p.hitBusVersion = busVersion;
    }
    if (p.miss && !p.missKnown) {
        p.missAt =
            dram_.earliestIssue({p.open ? CmdType::Pre : CmdType::Act,
                                 p.rank, p.bank, p.openRow, 0, false});
        p.missKnown = true;
    }
    return p;
}

bool
FrFcfsEngine::tick(Cycle now, unsigned avoidRank)
{
    hintValid_ = false;
    drainingWrites_ = nextDrainMode();
    const bool wantWrites = drainingWrites_;

    // Only the issuing scheduler uses the command bus, so it is free
    // here unless a refresh command took this cycle.
    const bool busFree = dram_.buses().cmdBusFree(now);
    const uint64_t busVersion = dram_.dataBusVersion();

    // One pass over the banks with entries of the served class: find
    // the oldest ready row-hit CAS, the oldest ready ACT for a closed
    // bank, and the oldest ready PRE for a conflicting open row,
    // noting whether that PRE's bank still has a pending hit (PRE
    // never closes a useful row). (arrival, id) is a total order, so
    // the visiting order cannot change the pick.
    const Entry *casCand = nullptr;
    const Entry *actCand = nullptr;
    const BankPick *preCand = nullptr;
    // Rank affinity: back-to-back bursts from one rank are gapless,
    // while switching ranks costs tRTRS — prefer CAS candidates on
    // the rank that last owned the data bus.
    const unsigned affineRank = dram_.buses().lastDataRank();
    auto betterCas = [&](const Entry &a, const Entry *b) {
        if (!b)
            return true;
        const bool aAff = a.rank == affineRank;
        const bool bAff = b->rank == affineRank;
        if (aAff != bAff)
            return aAff;
        return older(a, b);
    };
    // A tick that issues nothing sleeps until its first candidate
    // becomes legal. A PRE on a bank with a pending hit is withheld
    // whatever the cycle, so such a bank wakes on its hit alone.
    Cycle wake = kNoCycle;

    // The banks of the rank held off for refresh: flat banks
    // [avoidLo, avoidLo + banksPerRank_), none for kNoRank.
    const unsigned avoidLo =
        std::min(avoidRank, dram_.numRanks()) * banksPerRank_;
    const std::span<const uint64_t> nonempty = index_.nonempty(wantWrites);
    for (size_t w = 0; w < nonempty.size(); ++w) {
        for (uint64_t bits = nonempty[w]; bits; bits &= bits - 1) {
            const unsigned flat =
                static_cast<unsigned>(w * 64 + std::countr_zero(bits));
            if (flat - avoidLo < banksPerRank_)
                continue;
            const BankPick &p = refreshPick(wantWrites, flat, busVersion);
            wake = std::min(wake, p.hit ? p.hitAt : p.missAt);
            if (!busFree)
                continue;
            if (p.hit && now >= p.hitAt && betterCas(*p.hit, casCand))
                casCand = p.hit;
            if (!p.miss || now < p.missAt)
                continue;
            if (!p.open) {
                if (older(*p.miss, actCand))
                    actCand = p.miss;
            } else if (older(*p.miss, preCand ? preCand->miss : nullptr)) {
                preCand = &p;
            }
        }
    }

    if (casCand) {
        issueCas(*casCand, wantWrites, now);
        return true;
    }
    if (actCand) {
        const Entry &e = *actCand;
        dram_.issue({CmdType::Act, e.rank, e.bank, e.row, e.id, false},
                    now);
        if (e.req->firstCommand == kNoCycle)
            e.req->firstCommand = now;
        return true;
    }
    // Only close a row nobody still wants.
    if (preCand && !preCand->hit) {
        const Entry &e = *preCand->miss;
        dram_.issue({CmdType::Pre, e.rank, e.bank, preCand->openRow, e.id,
                     false},
                    now);
        ++rowConflicts_;
        return true;
    }

    if (opt_.allowPrefetchPromote) {
        // Update the utilisation window every 1024 cycles.
        if (now - utilWindowStart_ >= 1024) {
            const uint64_t busy = dram_.buses().dataBusyCycles();
            prefetchUtilOk_ =
                busy - utilWindowBusy_ < (now - utilWindowStart_) / 2;
            utilWindowBusy_ = busy;
            utilWindowStart_ = now;
        }
        // A promoted prefetch is a candidate the pass has not seen.
        if (prefetchUtilOk_ && promotePrefetches())
            return false;
    }

    // A drain-mode flip on the next tick changes the candidates.
    if (nextDrainMode() != drainingWrites_)
        return false;
    hint_ = wake;
    hintEpoch_ = epoch();
    hintValid_ = true;
    return false;
}

Cycle
FrFcfsEngine::nextWakeCycle(Cycle now) const
{
    const Cycle next = now + 1;
    if (!hintValid_ || epoch() != hintEpoch_)
        return next;
    Cycle wake = hint_;
    if (opt_.allowPrefetchPromote) {
        // An idle tick promotes whatever prefetch it can, and turns the
        // utilisation window over 1024 cycles after it last did. The
        // prefetch queues are read here rather than folded into the
        // hint, because a push to them does not move epoch().
        if (prefetchUtilOk_) {
            for (DomainId d = 0; d < mc_.numDomains(); ++d) {
                if (promotable(d))
                    return next;
            }
        }
        wake = std::min(wake, utilWindowStart_ + 1024);
    }
    return std::max(wake, next);
}

void
FrFcfsEngine::issueCas(const Entry &e, bool write, Cycle now)
{
    const dram::IssueResult res = dram_.issue(
        {write ? CmdType::Wr : CmdType::Rd, e.rank, e.bank, e.row, e.id,
         false},
        now);
    MemRequest *req = e.req;
    if (req->firstCommand == kNoCycle) {
        req->firstCommand = now;
        ++rowHits_;
    } else {
        ++rowMisses_;
    }
    mc_.noteBurst(false);
    mc_.finishRequest(mc_.queue(req->domain).take(req), res.dataEnd);
}

bool
FrFcfsEngine::promotable(DomainId d) const
{
    // Throttle: prefetches only ride along when the domain has little
    // demand waiting, so they never add queueing delay (and never into
    // a read budget of two or fewer that is full).
    const mem::TransactionQueue &q = *queues_[d];
    return !mc_.prefetchQueue(d).empty() && q.readCount() <= 2 &&
           !q.full(mem::ReqType::Read);
}

bool
FrFcfsEngine::promotePrefetches()
{
    bool moved = false;
    for (DomainId d = 0; d < mc_.numDomains(); ++d) {
        if (!promotable(d))
            continue;
        auto &pq = mc_.prefetchQueue(d);
        queues_[d]->push(std::move(pq.front()));
        pq.pop_front();
        moved = true;
    }
    return moved;
}

FrFcfsScheduler::FrFcfsScheduler(mem::MemoryController &mc,
                                 bool enablePrefetch, bool refresh)
    : Scheduler(mc),
      engine_(mc, FrFcfsEngine::Options{24, 8, enablePrefetch}),
      refreshEnabled_(refresh)
{
    // Stagger the per-rank refresh deadlines across tREFI.
    const auto &tp = dram_.timing();
    for (unsigned r = 0; r < dram_.numRanks(); ++r)
        nextRefresh_.push_back(tp.refi * (r + 1) / dram_.numRanks());
}

bool
FrFcfsScheduler::serviceRefresh(Cycle now, unsigned &avoidRank)
{
    for (unsigned r = 0; r < dram_.numRanks(); ++r) {
        if (now < nextRefresh_[r])
            continue;
        dram::Command ref{CmdType::Ref, r, 0, 0, 0, false};
        if (dram_.canIssue(ref, now)) {
            dram_.issue(ref, now);
            nextRefresh_[r] += dram_.timing().refi;
            refreshes_.inc();
            return true;
        }
        // Drain: close this rank's open rows so REF becomes legal.
        avoidRank = r;
        for (unsigned b = 0; b < dram_.rank(r).numBanks(); ++b) {
            const dram::Bank &bk = dram_.rank(r).bank(b);
            if (!bk.isOpen())
                continue;
            dram::Command pre{CmdType::Pre, r, b, bk.openRow(), 0, false};
            if (dram_.canIssue(pre, now)) {
                dram_.issue(pre, now);
                return true;
            }
        }
        return false; // waiting on tRAS/tWR; rank stays avoided
    }
    return false;
}

void
FrFcfsScheduler::tick(Cycle now)
{
    unsigned avoidRank = FrFcfsEngine::kNoRank;
    if (refreshEnabled_ && serviceRefresh(now, avoidRank))
        return;
    engine_.tick(now, avoidRank);
}

Cycle
FrFcfsScheduler::nextWakeCycle(Cycle now) const
{
    const Cycle next = now + 1;
    Cycle wake = engine_.nextWakeCycle(now);
    if (refreshEnabled_) {
        for (const Cycle r : nextRefresh_) {
            if (next >= r)
                return next; // refresh due (or draining towards it)
            wake = std::min(wake, r);
        }
    }
    return std::max(wake, next);
}

void
FrFcfsScheduler::registerStats(StatGroup &group) const
{
    group.addFormula(
        "row_hits",
        [this] { return static_cast<double>(engine_.rowHits()); },
        "CAS issued to an already-open row");
    group.addFormula(
        "row_misses",
        [this] { return static_cast<double>(engine_.rowMisses()); },
        "CAS that needed its own activate");
    group.addFormula(
        "row_conflicts",
        [this] { return static_cast<double>(engine_.rowConflicts()); },
        "precharges forced by a conflicting open row");
}

template <class Self, class Ar>
void
FrFcfsEngine::io(Self &self, Ar &ar)
{
    ar.section("frfcfs-engine");
    ar.io(self.drainingWrites_, self.utilWindowStart_, self.utilWindowBusy_,
          self.prefetchUtilOk_, self.rowHits_, self.rowMisses_,
          self.rowConflicts_);
    if constexpr (Ar::loading) {
        // Derived pick state never crosses a checkpoint: a stale rank
        // version re-derives all of a pick.
        for (std::vector<BankPick> &picks : self.picks_) {
            for (BankPick &p : picks)
                p.rankVersion = ~0ull;
        }
        self.hintValid_ = false;
    }
}

void
FrFcfsEngine::saveState(Serializer &s) const
{
    io(*this, s);
}

void
FrFcfsEngine::restoreState(Deserializer &d)
{
    io(*this, d);
}

template <class Self, class Ar>
void
FrFcfsScheduler::io(Self &self, Ar &ar)
{
    ar.section("frfcfs");
    ar.io(self.engine_);
    ar.sized(self.nextRefresh_, "refresh schedule size mismatch");
    ar.io(self.refreshes_);
}

void
FrFcfsScheduler::saveState(Serializer &s) const
{
    io(*this, s);
}

void
FrFcfsScheduler::restoreState(Deserializer &d)
{
    io(*this, d);
}

} // namespace memsec::sched
