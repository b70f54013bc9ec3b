#include "sched/frfcfs.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::sched {

using mem::MemRequest;
using dram::CmdType;
using Entry = mem::TransactionQueue::Entry;

FrFcfsEngine::FrFcfsEngine(mem::MemoryController &mc, const Options &opt)
    : mc_(mc), dram_(mc.dram()), opt_(opt),
      banksPerRank_(dram_.geometry().banksPerRank)
{
    for (DomainId d = 0; d < mc.numDomains(); ++d)
        queues_.push_back(&mc.queue(d));
    const size_t banks =
        static_cast<size_t>(dram_.numRanks()) * banksPerRank_;
    memo_.resize(banks);
    touched_.reserve(banks);
    useful_.resize((banks + 63) / 64);
}

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

bool
FrFcfsEngine::tick(Cycle now, unsigned avoidRank)
{
    hintValid_ = false;
    drainingWrites_ = nextDrainMode();
    const bool wantWrites = drainingWrites_;
    const CmdType casType = wantWrites ? CmdType::Wr : CmdType::Rd;

    ++tickSerial_;
    touched_.clear();
    std::fill(useful_.begin(), useful_.end(), 0);
    // Only the issuing scheduler uses the command bus, so it is free
    // here unless a refresh command took this cycle.
    const bool busFree = dram_.buses().cmdBusFree(now);
    const uint64_t busVersion = dram_.dataBusVersion();

    // A bank's memo is touched once per tick and re-read from the
    // device only when a command to its rank has changed its state.
    auto memoFor = [&](unsigned rank, unsigned bank) -> BankMemo & {
        const unsigned idx = rank * banksPerRank_ + bank;
        BankMemo &m = memo_[idx];
        if (m.tick == tickSerial_)
            return m;
        m.tick = tickSerial_;
        m.missSeen = false;
        touched_.push_back(idx);
        const uint64_t version = dram_.rankVersion(rank);
        if (m.rankVersion != version) {
            const dram::Bank &bk = dram_.rank(rank).bank(bank);
            m.rankVersion = version;
            m.open = bk.isOpen();
            m.openRow = bk.openRow();
            m.hitKnown = false;
            m.missKnown = false;
        }
        return m;
    };

    // Single pass over the queues: find the oldest ready row-hit CAS,
    // the oldest ready ACT for a closed bank, and the oldest ready PRE
    // for a conflicting open row. Also remember which open rows still
    // have pending hits so PRE never closes a useful row.
    const Entry *casCand = nullptr;
    const Entry *actCand = nullptr;
    const Entry *preCand = nullptr;
    auto older = [](const Entry &a, const Entry *b) {
        return !b || a.arrival < b->arrival ||
               (a.arrival == b->arrival && a.id < b->id);
    };
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

    for (mem::TransactionQueue *q : queues_) {
        for (const Entry &e : q->view(wantWrites)) {
            if (e.rank == avoidRank)
                continue;
            BankMemo &m = memoFor(e.rank, e.bank);
            if (m.open && m.openRow == e.row) {
                const unsigned idx = e.rank * banksPerRank_ + e.bank;
                useful_[idx / 64] |= uint64_t{1} << (idx % 64);
                if (!m.hitKnown || m.hitBusVersion != busVersion ||
                    m.hitWrite != wantWrites) {
                    m.hitAt = dram_.earliestIssue(
                        {casType, e.rank, e.bank, e.row, 0, false});
                    m.hitKnown = true;
                    m.hitBusVersion = busVersion;
                    m.hitWrite = wantWrites;
                }
                if (busFree && now >= m.hitAt && betterCas(e, casCand))
                    casCand = &e;
                continue;
            }
            m.missSeen = true;
            if (!m.missKnown) {
                const CmdType t = m.open ? CmdType::Pre : CmdType::Act;
                m.missAt = dram_.earliestIssue(
                    {t, e.rank, e.bank, m.openRow, 0, false});
                m.missKnown = true;
            }
            if (!busFree || now < m.missAt)
                continue;
            const Entry *&cand = m.open ? preCand : actCand;
            if (older(e, cand))
                cand = &e;
        }
    }

    auto isUseful = [&](unsigned idx) {
        return (useful_[idx / 64] >> (idx % 64)) & 1;
    };

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
    if (preCand && !isUseful(preCand->rank * banksPerRank_ + preCand->bank)) {
        const Entry &e = *preCand;
        const unsigned openRow = memoFor(e.rank, e.bank).openRow;
        dram_.issue({CmdType::Pre, e.rank, e.bank, openRow, e.id, false},
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
        // A promoted prefetch is a candidate the scan has not seen.
        if (prefetchUtilOk_ && promotePrefetches())
            return false;
    }

    // A drain-mode flip on the next tick changes the candidates.
    if (nextDrainMode() != drainingWrites_)
        return false;
    // Otherwise nothing issues until the first candidate becomes
    // legal. A PRE on a bank with a pending hit is withheld whatever
    // the cycle, so it does not count.
    Cycle wake = kNoCycle;
    for (const unsigned idx : touched_) {
        const BankMemo &m = memo_[idx];
        if (isUseful(idx))
            wake = std::min(wake, m.hitAt);
        else if (m.missSeen)
            wake = std::min(wake, m.missAt);
    }
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
        // Derived scan state never crosses a checkpoint.
        std::fill(self.memo_.begin(), self.memo_.end(), BankMemo{});
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
