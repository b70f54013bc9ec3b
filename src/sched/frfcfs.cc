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
      index_(mc.queueTotals().banks), rankFloors_(dram_.numRanks())
{
    for (DomainId d = 0; d < mc.numDomains(); ++d)
        queues_.push_back(&mc.queue(d));
    const size_t words = index_.nonempty(false).size();
    for (bool w : {false, true}) {
        picks_[w].resize(index_.numBanks());
        for (unsigned flat = 0; flat < index_.numBanks(); ++flat) {
            picks_[w][flat].rank = flat / banksPerRank_;
            picks_[w][flat].bank = flat % banksPerRank_;
        }
        stale_[w].resize(words);
        rewalk_[w].resize(words);
    }
    readyMisses_.resize(words);
    markAll();
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

void
FrFcfsEngine::markAll()
{
    for (bool w : {false, true}) {
        std::fill(stale_[w].begin(), stale_[w].end(), ~0ull);
        std::fill(rewalk_[w].begin(), rewalk_[w].end(), ~0ull);
    }
    for (RankFloors &f : rankFloors_)
        f = RankFloors{};
    syncedLegality_ = casSynced_[0] = casSynced_[1] = ~0ull;
    own_.at = ~0ull;
}

void
FrFcfsEngine::rereadRank(unsigned r)
{
    RankFloors &f = rankFloors_[r];
    f.version = dram_.rankVersion(r);
    f.floor[kAct] = dram_.rankFloor(CmdType::Act, r);
    f.floor[kPre] = dram_.rankFloor(CmdType::Pre, r);
    f.casBus[0] = f.casBus[1] = ~0ull;
}

void
FrFcfsEngine::markStale(unsigned flat)
{
    for (std::vector<uint64_t> &stale : stale_)
        stale[flat / 64] |= uint64_t{1} << (flat % 64);
}

void
FrFcfsEngine::syncRanks(bool writes)
{
    const uint64_t legality = dram_.legalityVersion();
    if (legality == own_.at) {
        rereadRank(own_.rank);
        markStale(own_.rank * banksPerRank_ + own_.bank);
        own_.at = ~0ull;
        syncedLegality_ = legality;
    } else if (legality != syncedLegality_) {
        for (unsigned r = 0; r < rankFloors_.size(); ++r) {
            if (rankFloors_[r].version == dram_.rankVersion(r))
                continue;
            rereadRank(r);
            for (unsigned b = 0; b < banksPerRank_; ++b)
                markStale(r * banksPerRank_ + b);
        }
        syncedLegality_ = legality;
    }
    if (casSynced_[writes] == legality)
        return;
    casSynced_[writes] = legality;
    const uint64_t bus = dram_.dataBusVersion();
    const CmdType cas = writes ? CmdType::Wr : CmdType::Rd;
    for (unsigned r = 0; r < rankFloors_.size(); ++r) {
        RankFloors &f = rankFloors_[r];
        if (f.casBus[writes] != bus) {
            f.casBus[writes] = bus;
            f.floor[kRd + writes] = dram_.rankFloor(cas, r);
        }
    }
}

void
FrFcfsEngine::syncBanks(bool writes)
{
    // A bank that is empty now is marked again (its bucket changes)
    // before it next has an entry, so every mark can go.
    const std::span<const uint64_t> nonempty = index_.nonempty(writes);
    const std::span<const uint64_t> changed = index_.changed(writes);
    for (size_t w = 0; w < nonempty.size(); ++w) {
        const uint64_t rewalk = rewalk_[writes][w] | changed[w];
        for (uint64_t bits = nonempty[w] & (stale_[writes][w] | rewalk);
             bits; bits &= bits - 1) {
            const unsigned bit = static_cast<unsigned>(std::countr_zero(bits));
            rereadBank(writes, static_cast<unsigned>(w * 64 + bit),
                       rewalk >> bit & 1);
        }
        stale_[writes][w] = rewalk_[writes][w] = 0;
    }
    index_.clearChanged(writes);
}

void
FrFcfsEngine::rereadBank(bool writes, unsigned flat, bool rewalk)
{
    BankPick &p = picks_[writes][flat];
    const dram::Bank &bk = dram_.rank(p.rank).bank(p.bank);
    if (rewalk || bk.openRow() != p.openRow) {
        p.openRow = bk.openRow();
        p.missSlot = bk.isOpen() ? kPre : kAct;
        p.hit = p.miss = nullptr;
        for (const Entry &e : index_.bucket(writes, flat).entries) {
            const bool isHit = bk.isOpen() && e.row == p.openRow;
            const Entry *&best = isHit ? p.hit : p.miss;
            Age &bestAge = isHit ? p.hitAge : p.missAge;
            const Age age{e.arrival, e.id};
            if (!best || age.before(bestAge)) {
                best = &e;
                bestAge = age;
            }
        }
    }
    p.hitFloor =
        p.hit ? bk.floor(writes ? CmdType::Wr : CmdType::Rd) : kNoCycle;
    p.missFloor =
        p.miss ? bk.floor(bk.isOpen() ? CmdType::Pre : CmdType::Act)
               : kNoCycle;
}

bool
FrFcfsEngine::tick(Cycle now, unsigned avoidRank)
{
    hintValid_ = false;
    drainingWrites_ = nextDrainMode();
    const bool wantWrites = drainingWrites_;
    syncRanks(wantWrites);
    syncBanks(wantWrites);

    // One pass over the banks with entries of the served class takes
    // each candidate's legal cycle as the max of its bank floor and
    // its rank floor (kNoCycle for a missing candidate), folds the
    // first one per bank into the wake, and marks the candidates
    // ready before `readyBefore`. Only the issuing scheduler uses the
    // command bus, so it is free unless a refresh command took this
    // cycle. Among the ready ones the tick then takes the oldest
    // row-hit CAS, else the oldest ACT for a closed bank, else the
    // oldest PRE for a conflicting open row, noting whether that
    // PRE's bank still has a pending hit (PRE never closes a useful
    // row). (arrival, id) is a total order, so the visiting order
    // cannot change the pick.
    const Cycle readyBefore = dram_.buses().cmdBusFree(now) ? now + 1 : 0;
    const BankPick *casCand = nullptr;
    const BankPick *actCand = nullptr;
    const BankPick *preCand = nullptr;
    // Rank affinity: back-to-back bursts from one rank are gapless,
    // while switching ranks costs tRTRS — prefer CAS candidates on
    // the rank that last owned the data bus.
    const unsigned affineRank = dram_.buses().lastDataRank();
    auto betterCas = [&](const BankPick &a, const BankPick *b) {
        if (!b)
            return true;
        const bool aAff = a.rank == affineRank;
        const bool bAff = b->rank == affineRank;
        if (aAff != bAff)
            return aAff;
        return a.hitAge.before(b->hitAge);
    };
    // A tick that issues nothing sleeps until its first candidate
    // becomes legal. A PRE on a bank with a pending hit is withheld
    // whatever the cycle, so such a bank wakes on its hit alone.
    Cycle wake = kNoCycle;

    // The banks of the rank held off for refresh: flat banks
    // [avoidLo, avoidLo + banksPerRank_), none for kNoRank.
    const unsigned avoidLo =
        std::min(avoidRank, dram_.numRanks()) * banksPerRank_;
    const unsigned casSlot = kRd + wantWrites;
    const BankPick *picks = picks_[wantWrites].data();
    const RankFloors *floors = rankFloors_.data();
    const std::span<const uint64_t> nonempty = index_.nonempty(wantWrites);
    for (size_t w = 0; w < nonempty.size(); ++w) {
        uint64_t readyHits = 0;
        uint64_t readyMisses = 0;
        for (uint64_t bits = nonempty[w]; bits; bits &= bits - 1) {
            const unsigned bit =
                static_cast<unsigned>(std::countr_zero(bits));
            const unsigned flat = static_cast<unsigned>(w * 64) + bit;
            if (flat - avoidLo < banksPerRank_)
                continue;
            const BankPick &p = picks[flat];
            const Cycle *f = floors[p.rank].floor;
            const Cycle hitAt = std::max(p.hitFloor, f[casSlot]);
            const Cycle missAt = std::max(p.missFloor, f[p.missSlot]);
            wake = std::min(wake, p.hit ? hitAt : missAt);
            readyHits |= uint64_t{hitAt < readyBefore} << bit;
            readyMisses |= uint64_t{missAt < readyBefore} << bit;
        }
        for (; readyHits; readyHits &= readyHits - 1) {
            const BankPick &p = picks[w * 64 + std::countr_zero(readyHits)];
            if (betterCas(p, casCand))
                casCand = &p;
        }
        readyMisses_[w] = readyMisses;
    }
    // An ACT or PRE goes only if no CAS is ready.
    for (size_t w = 0; !casCand && w < nonempty.size(); ++w) {
        for (uint64_t bits = readyMisses_[w]; bits; bits &= bits - 1) {
            const BankPick &p = picks[w * 64 + std::countr_zero(bits)];
            const BankPick *&cand = p.missSlot == kPre ? preCand : actCand;
            if (!cand || p.missAge.before(cand->missAge))
                cand = &p;
        }
    }

    if (casCand) {
        issueCas(*casCand->hit, wantWrites, now);
        return true;
    }
    if (actCand) {
        const Entry &e = *actCand->miss;
        issue({CmdType::Act, e.rank, e.bank, e.row, e.id, false}, now);
        if (e.req->firstCommand == kNoCycle)
            e.req->firstCommand = now;
        return true;
    }
    // Only close a row nobody still wants.
    if (preCand && !preCand->hit) {
        const Entry &e = *preCand->miss;
        issue({CmdType::Pre, e.rank, e.bank, preCand->openRow, e.id, false},
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

dram::IssueResult
FrFcfsEngine::issue(const dram::Command &cmd, Cycle now)
{
    const uint64_t before = dram_.legalityVersion();
    const dram::IssueResult res = dram_.issue(cmd, now);
    own_ = {dram_.legalityVersion(), cmd.rank, cmd.bank};
    // Anything else that moved since the last sync needs a full one.
    if (before != syncedLegality_ || own_.at != before + 1)
        own_.at = ~0ull;
    return res;
}

void
FrFcfsEngine::issueCas(const Entry &e, bool write, Cycle now)
{
    const dram::IssueResult res = issue(
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
        // Derived pick state never crosses a checkpoint.
        self.markAll();
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
