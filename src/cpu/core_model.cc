#include "cpu/core_model.hh"

#include "cpu/arrival.hh"
#include "cpu/trace_file.hh"

#include <algorithm>
#include <iterator>
#include <list>
#include <mutex>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::cpu {

using mem::MemRequest;
using mem::ReqType;

namespace {

Addr
lineOf(Addr addr)
{
    return addr / kLineBytes * kLineBytes;
}

/** One memoized warm state. */
struct WarmState
{
    std::string key; ///< warmupKey()
    cache::Cache llc;
    std::string trace; ///< TraceGenerator::saveState bytes
};

/** The process-wide warmup memo; every member is guarded by `mutex`. */
struct WarmupMemo
{
    std::mutex mutex;
    std::list<WarmState> lru; ///< most recently used first
    WarmupMemoStats stats;
};

WarmupMemo &
warmupMemo()
{
    static WarmupMemo memo;
    return memo;
}

} // namespace

WarmupMemoStats
warmupMemoStats()
{
    WarmupMemo &memo = warmupMemo();
    const std::lock_guard<std::mutex> lock(memo.mutex);
    return memo.stats;
}

void
resetWarmupMemo()
{
    WarmupMemo &memo = warmupMemo();
    const std::lock_guard<std::mutex> lock(memo.mutex);
    memo.lru.clear();
    memo.stats = {};
}

CoreModel::CoreModel(std::string name, DomainId domain,
                     const Params &params, const WorkloadProfile &profile,
                     uint64_t traceSeed, mem::MemoryController &mc)
    : Component(std::move(name)), domain_(domain), params_(params),
      profile_(profile), mc_(mc), llc_(params.llcBytes, params.llcWays),
      prefetcher_()
{
    if (!profile.trafficProcess.empty() &&
        profile.trafficProcess != "none") {
        trace_ = std::make_unique<ArrivalTraceGenerator>(profile,
                                                         traceSeed);
    } else if (profile.tracePath.empty()) {
        trace_ = std::make_unique<SyntheticTraceGenerator>(profile,
                                                           traceSeed);
    } else {
        trace_ = std::make_unique<FileTraceGenerator>(profile.tracePath);
    }
    fatal_if(params.robSize == 0 || params.retireWidth == 0,
             "core parameters must be nonzero");
    nextProgressMark_ = params.progressInterval;
    // Checkpoint restore rebinds request client pointers through this
    // registry, so every core must be reachable by its domain id.
    mc.registerClient(domain, this);
    functionalWarmup(traceSeed);
}

void
CoreModel::functionalWarmup(uint64_t traceSeed)
{
    const uint64_t records = params_.functionalWarmupRecords;
    if (records == 0)
        return;
    // Replay a trace prefix through the LLC with no timing so
    // measurement starts from a warm cache, as the paper's
    // fast-forwarded checkpoints do. Writebacks generated here are
    // discarded (they happened "before" the simulation).
    auto *synthetic =
        dynamic_cast<SyntheticTraceGenerator *>(trace_.get());
    auto replay = [&] {
        // A synthetic stream runs the warm kernel, which skips the
        // unused gaps (draw-exact, see skipRecords); other generators
        // produce whole records.
        if (synthetic != nullptr) {
            synthetic->skipRecords(records, llc_);
            return;
        }
        for (uint64_t i = 0; i < records; ++i) {
            const TraceRecord tr = trace_->next();
            llc_.accessOrFill(lineOf(tr.addr), tr.isStore);
        }
    };
    WarmupMemo &memo = warmupMemo();
    // Only synthetic generators are memoized. A trace file can change
    // on disk under the same path, and open-loop domains skip warmup
    // unless a config asks for it explicitly.
    if (synthetic == nullptr || params_.warmupMemoEntries == 0) {
        replay();
        const std::lock_guard<std::mutex> lock(memo.mutex);
        ++memo.stats.bypasses;
        return;
    }

    const std::string key = warmupKey(profile_, traceSeed, records,
                                      params_.llcBytes, params_.llcWays);
    auto find = [&] {
        return std::find_if(
            memo.lru.begin(), memo.lru.end(),
            [&](const WarmState &w) { return w.key == key; });
    };
    {
        const std::lock_guard<std::mutex> lock(memo.mutex);
        const auto it = find();
        if (it != memo.lru.end()) {
            memo.lru.splice(memo.lru.begin(), memo.lru, it);
            ++memo.stats.hits;
            llc_ = it->llc;
            Deserializer d(it->trace);
            trace_->restoreState(d);
            return;
        }
    }

    // Replayed outside the lock so parallel campaign workers warm
    // different keys concurrently. Two workers racing on one key
    // compute the same state; the first to finish stores it.
    replay();
    Serializer s;
    trace_->saveState(s);
    const std::lock_guard<std::mutex> lock(memo.mutex);
    ++memo.stats.misses;
    if (find() != memo.lru.end())
        return;
    if (memo.lru.size() < params_.warmupMemoEntries) {
        memo.lru.push_front({key, llc_, s.take()});
    } else {
        // Full: overwrite the least recently used entry in place, so
        // an equal-geometry cache reuses its buffer. Freeing it and
        // allocating a fresh one fragments the heap enough to keep
        // about half a MiB more resident once the runs are over.
        memo.lru.splice(memo.lru.begin(), memo.lru,
                        std::prev(memo.lru.end()));
        WarmState &w = memo.lru.front();
        w.key = key;
        w.llc = llc_;
        w.trace = s.take();
    }
    while (memo.lru.size() > params_.warmupMemoEntries)
        memo.lru.pop_back();
}

double
CoreModel::ipc() const
{
    const CpuCycle cycles = cpuCycles_ - measureStartCycle_;
    if (cycles == 0)
        return 0.0;
    return static_cast<double>(retired_ - measureStartRetired_) /
           static_cast<double>(cycles);
}

void
CoreModel::beginMeasurement()
{
    measureStartCycle_ = cpuCycles_;
    measureStartRetired_ = retired_;
}

size_t
CoreModel::demandMshrs() const
{
    return mshr_.size() - prefetchInflight_;
}

void
CoreModel::tick(Cycle now)
{
    memNow_ = now;
    // Time-keyed generators (covert-channel senders) see the bus
    // cycle before dispatch pulls any record of this tick. Skipped
    // ticks never dispatch (nextWakeCycle returns now+1 whenever
    // dispatch could run), so fastforward cannot perturb the feed.
    trace_->observeCycle(now);
    drainWritebacks();
    retryBlocked();
    // Quiet runs go in closed form, the other sub-cycles one by one.
    for (uint64_t sub = 0; sub < params_.cpuMult; ++sub) {
        const uint64_t quiet =
            std::min<uint64_t>(quietSubCycles(), params_.cpuMult - sub);
        if (quiet > 0) {
            skipQuiet(quiet, now, sub);
            sub += quiet - 1;
            continue;
        }
        retire();
        dispatch();
        ++cpuCycles_;
    }
}

uint64_t
CoreModel::quietSubCycles() const
{
    if (rob_.empty() || robInstrs_ < params_.robSize)
        return 0;
    const Record &head = rob_.front();
    const uint64_t k = head.gapLeft() / params_.retireWidth;
    if (head.isStore || head.state == Record::State::Done)
        return k;
    if (head.state != Record::State::LlcPending)
        return kNever;
    // cpuCycles_ is sampled before each sub-cycle increments it.
    return std::max(k, head.doneAt > cpuCycles_ ? head.doneAt - cpuCycles_
                                                : 0);
}

Cycle
CoreModel::nextWakeCycle(Cycle now) const
{
    const Cycle next = now + 1;
    // Dispatch has ROB space, or the head retires next sub-cycle.
    const uint64_t quiet = quietSubCycles();
    if (quiet == 0)
        return next;
    // Writebacks drain whenever the controller has write space.
    if (!writebacks_.empty() && mc_.canAccept(domain_, ReqType::Write))
        return next;
    // If retryBlocked()'s first step next tick would act, the cycle
    // cannot be skipped; both read the same gating rule. A step it
    // stops at is blocked on MSHR state, which only a response or a
    // drop changes, or on queue space, which the controller announces
    // with a poke when it frees up.
    if (!pendingStoreFetches_.empty() &&
        !storeFetchBlocked(pendingStoreFetches_.front()))
        return next;
    if (needsIssue_ > 0) {
        for (const auto &rec : rob_) {
            if (rec.state == Record::State::NeedsIssue) {
                if (!retryBlockedAt(rec))
                    return next;
                break;
            }
        }
    }
    // Otherwise the first memory cycle whose sub-cycles reach the end
    // of the quiet run; a memory-blocked head sleeps until a poke.
    return quiet == kNever ? kNoCycle : next + quiet / params_.cpuMult;
}

void
CoreModel::fastForward(Cycle from, Cycle to)
{
    // nextWakeCycle() proved these sub-cycles quiet.
    const uint64_t n = (to - from) * params_.cpuMult;
    panic_if(n > quietSubCycles(), "{}: {} sub-cycles are not quiet",
             name(), n);
    skipQuiet(n, from, 0);
    // The clocks as the last slept tick leaves them, so the bytes
    // saveState() writes do not depend on how long the core slept.
    memNow_ = to - 1;
    trace_->observeCycle(memNow_);
}

void
CoreModel::skipQuiet(uint64_t n, Cycle mem, uint64_t sub)
{
    const uint64_t width = params_.retireWidth;
    const uint64_t k = gapLeft() / width;
    const uint64_t before = retired_;
    // Sub-cycles 0..k-1 retire a full width, sub-cycle k the rest.
    const uint64_t taken = retireGap(n > k ? kNever : n * width);
    const uint64_t retiring = (taken + width - 1) / width;
    noteRetired(before, mem + (sub + retiring - 1) / params_.cpuMult);
    // From sub-cycle k on, the head's memory op is reached and stalls.
    if (n > k)
        robStallCycles_.inc(n - k);
    cpuCycles_ += n;
}

template <class Self, class Ar>
void
CoreModel::io(Self &self, Ar &ar)
{
    ar.section("core");
    ar.io(*self.trace_, self.llc_, self.prefetcher_, self.rob_);
    if constexpr (Ar::loading) {
        self.needsIssue_ = static_cast<size_t>(std::count_if(
            self.rob_.begin(), self.rob_.end(), [](const Record &rec) {
                return rec.state == Record::State::NeedsIssue;
            }));
    }
    ar.io(self.robInstrs_);

    // MSHR waiters are pointers into rob_; encode them as ROB indices
    // (deque element addresses are stable, so the scan is exact).
    ar.seq(self.mshr_, [&](auto &addr, auto &entry) {
        ar.io(addr, entry.fillDirty, entry.isPrefetch, entry.demandTouched);
        ar.seq(entry.waiters, [&](auto &waiter) {
            uint64_t idx = 0;
            if constexpr (!Ar::loading) {
                const auto it = std::find_if(
                    self.rob_.begin(), self.rob_.end(),
                    [&](const Record &rec) { return &rec == waiter; });
                panic_if(it == self.rob_.end(),
                         "{}: MSHR waiter not found in ROB", self.name());
                idx = static_cast<uint64_t>(it - self.rob_.begin());
            }
            ar.io(idx);
            if constexpr (Ar::loading) {
                if (idx >= self.rob_.size())
                    ar.fail("MSHR waiter index out of range");
                waiter = &self.rob_[idx];
            }
        });
    });
    ar.io(self.prefetchInflight_, self.pendingStoreFetches_,
          self.writebacks_, self.memNow_, self.cpuCycles_, self.retired_,
          self.measureStartCycle_, self.measureStartRetired_,
          self.timeline_, self.nextProgressMark_, self.loads_,
          self.stores_, self.llcMisses_, self.memReads_,
          self.memWritebacks_, self.prefetchIssued_, self.prefetchUseful_,
          self.robStallCycles_);
}

void
CoreModel::saveState(Serializer &s) const
{
    io(*this, s);
}

void
CoreModel::restoreState(Deserializer &d)
{
    io(*this, d);
}

void
CoreModel::setState(Record &rec, Record::State s)
{
    if (rec.state == Record::State::NeedsIssue)
        --needsIssue_;
    if (s == Record::State::NeedsIssue)
        ++needsIssue_;
    rec.state = s;
}

void
CoreModel::hitLocally(Record &rec)
{
    setState(rec, rec.isStore ? Record::State::Done
                              : Record::State::LlcPending);
    if (!rec.isStore)
        rec.doneAt = cpuCycles_ + params_.llcHitLatency;
}

void
CoreModel::dispatch()
{
    while (robInstrs_ < params_.robSize) {
        const TraceRecord tr = trace_->next();
        Record rec;
        rec.instrs = static_cast<uint64_t>(tr.gap) + 1;
        rec.isStore = tr.isStore;
        rec.addr = lineOf(tr.addr);
        rec.issueAt = tr.issueAt;
        rob_.push_back(rec);
        robInstrs_ += rec.instrs;
        executeMemOp(rob_.back());
    }
}

void
CoreModel::executeMemOp(Record &rec)
{
    if (rec.isStore)
        stores_.inc();
    else
        loads_.inc();

    const cache::AccessResult ar = llc_.access(rec.addr, rec.isStore);
    if (ar.prefetchHit)
        prefetchUseful_.inc();
    if (ar.hit) {
        hitLocally(rec);
        return;
    }
    llcMisses_.inc();

    // A pending writeback still holds the data: refill locally.
    auto wb = std::find(writebacks_.begin(), writebacks_.end(), rec.addr);
    if (wb != writebacks_.end()) {
        writebacks_.erase(wb);
        const cache::FillResult fr = llc_.fill(rec.addr, true);
        if (fr.evictedDirty)
            writebacks_.push_back(fr.writebackAddr);
        hitLocally(rec);
        return;
    }

    auto it = mshr_.find(rec.addr);
    if (it != mshr_.end()) {
        MshrEntry &entry = it->second;
        if (entry.isPrefetch && !entry.demandTouched) {
            prefetchUseful_.inc();
            entry.demandTouched = true;
        }
        // Upgrade a prefetch entry to a demand fetch: the prefetch is
        // only a hint and may wait in the controller's side queue
        // indefinitely (e.g. a saturated FS domain never has a dummy
        // slot). Whichever response arrives first fills the line.
        if (entry.isPrefetch) {
            if (!mc_.canAccept(domain_)) {
                setState(rec, rec.isStore ? Record::State::Done
                                          : Record::State::NeedsIssue);
                // The store merges into the hint: the line fills
                // dirty whichever response brings it, and a dropped
                // hint re-queues the fetch (memDropped).
                if (rec.isStore)
                    entry.fillDirty = true;
                return;
            }
            entry.isPrefetch = false;
            --prefetchInflight_;
            send(ReqType::Read, rec.addr, rec.issueAt);
        }
        if (rec.isStore) {
            entry.fillDirty = true;
            setState(rec, Record::State::Done);
        } else {
            entry.waiters.push_back(&rec);
            setState(rec, Record::State::MemPending);
        }
        return;
    }

    if (rec.isStore) {
        // Fetch-for-ownership; the store itself retires via the
        // store buffer.
        setState(rec, Record::State::Done);
        issueStoreFetch(rec.addr);
    } else {
        if (!tryIssueLoad(rec))
            setState(rec, Record::State::NeedsIssue);
    }
    if (params_.prefetchEnabled)
        issuePrefetches(rec.addr);
}

void
CoreModel::send(ReqType type, Addr addr, Cycle issueAt)
{
    if (type == ReqType::Read)
        memReads_.inc();
    auto req = std::make_unique<MemRequest>();
    req->domain = domain_;
    req->type = type;
    req->addr = addr;
    req->issued = issueAt;
    // A writeback completes silently.
    req->client = type == ReqType::Write ? nullptr : this;
    mc_.access(std::move(req), memNow_);
}

bool
CoreModel::canIssueDemand() const
{
    return demandMshrs() < profile_.mshrs && mc_.canAccept(domain_);
}

bool
CoreModel::tryIssueLoad(Record &rec)
{
    if (!canIssueDemand())
        return false;
    MshrEntry &entry = mshr_[rec.addr];
    entry.waiters.push_back(&rec);
    setState(rec, Record::State::MemPending);
    send(ReqType::Read, rec.addr, rec.issueAt);
    return true;
}

void
CoreModel::issueStoreFetch(Addr addr)
{
    if (!canIssueDemand()) {
        pendingStoreFetches_.push_back(addr);
        return;
    }
    MshrEntry &entry = mshr_[addr];
    entry.fillDirty = true;
    send(ReqType::Read, addr);
}

void
CoreModel::issuePrefetches(Addr missAddr)
{
    const auto candidates = prefetcher_.onMiss(missAddr);
    for (Addr target : candidates) {
        const Addr line = lineOf(target);
        if (llc_.contains(line) || mshr_.count(line))
            continue;
        if (prefetchInflight_ >= 4)
            break;
        MshrEntry &entry = mshr_[line];
        entry.isPrefetch = true;
        ++prefetchInflight_;
        prefetchIssued_.inc();
        send(ReqType::Prefetch, line);
    }
}

void
CoreModel::retire()
{
    const uint64_t before = retired_;
    uint64_t budget = params_.retireWidth;
    bool stalled = false;
    while (budget > 0 && !rob_.empty()) {
        // Gap instructions before the memory op retire freely.
        budget -= retireGap(budget);
        if (budget == 0)
            break;

        // The memory op itself.
        Record &head = rob_.front();
        const bool ready =
            head.isStore || head.state == Record::State::Done ||
            (head.state == Record::State::LlcPending &&
             head.doneAt <= cpuCycles_);
        if (!ready) {
            stalled = true;
            break;
        }
        ++head.retiredOfThis;
        ++retired_;
        --budget;
        robInstrs_ -= head.instrs;
        if (head.state == Record::State::NeedsIssue)
            --needsIssue_; // defensive: a retirable head is never one
        rob_.pop_front();
    }
    if (stalled)
        robStallCycles_.inc();
    noteRetired(before, memNow_);
}

uint64_t
CoreModel::retireGap(uint64_t max)
{
    const uint64_t take = std::min(max, gapLeft());
    rob_.front().retiredOfThis += take;
    retired_ += take;
    return take;
}

void
CoreModel::noteRetired(uint64_t before, Cycle lastMem)
{
    if (retired_ == before)
        return;
    progressCycle_ = lastMem + 1;
    while (params_.progressInterval > 0 && retired_ >= nextProgressMark_) {
        timeline_.progress.push_back(
            cpuCycles_ + (nextProgressMark_ - before - 1) /
                             params_.retireWidth);
        nextProgressMark_ += params_.progressInterval;
    }
}

void
CoreModel::memResponse(const MemRequest &req)
{
    poke();
    if (req.type == ReqType::Write)
        return;
    const Addr line = lineOf(req.addr);

    if (params_.captureTimeline && req.type == ReqType::Read)
        timeline_.recordService(req.arrival, req.completed);

    auto it = mshr_.find(line);
    if (it == mshr_.end())
        return; // e.g. a forwarded read that never allocated
    MshrEntry entry = std::move(it->second);
    if (entry.isPrefetch)
        --prefetchInflight_;
    mshr_.erase(it);

    const cache::FillResult fr = llc_.fill(
        line, entry.fillDirty,
        entry.isPrefetch && !entry.demandTouched);
    if (fr.evictedDirty)
        writebacks_.push_back(fr.writebackAddr);
    for (Record *rec : entry.waiters)
        setState(*rec, Record::State::Done);
}

void
CoreModel::memDropped(const MemRequest &req)
{
    poke();
    // A prefetch hint was discarded: clear its MSHR entry. Any demand
    // loads that merged with it must be re-issued as real reads.
    const Addr line = lineOf(req.addr);
    auto it = mshr_.find(line);
    if (it == mshr_.end())
        return;
    if (!it->second.isPrefetch) {
        // Already upgraded: a real demand read is in flight and will
        // complete this entry.
        return;
    }
    MshrEntry entry = std::move(it->second);
    --prefetchInflight_;
    mshr_.erase(it);
    for (Record *rec : entry.waiters)
        setState(*rec, Record::State::NeedsIssue);
    if (entry.fillDirty)
        pendingStoreFetches_.push_back(line);
}

void
CoreModel::drainWritebacks()
{
    while (!writebacks_.empty() &&
           mc_.canAccept(domain_, ReqType::Write)) {
        const Addr addr = writebacks_.front();
        writebacks_.pop_front();
        memWritebacks_.inc();
        send(ReqType::Write, addr);
    }
}

bool
CoreModel::storeFetchBlocked(Addr addr) const
{
    // A line already cached or in flight only needs dropping.
    return !llc_.contains(addr) && mshr_.count(addr) == 0 &&
           !canIssueDemand();
}

bool
CoreModel::retryBlockedAt(const Record &rec) const
{
    auto it = mshr_.find(rec.addr);
    if (it != mshr_.end()) {
        // Re-linking the waiter is always possible; upgrading a
        // prefetch hint needs a queue slot.
        return it->second.isPrefetch && !mc_.canAccept(domain_);
    }
    return !llc_.contains(rec.addr) && !canIssueDemand();
}

void
CoreModel::retryBlocked()
{
    while (!pendingStoreFetches_.empty()) {
        const Addr addr = pendingStoreFetches_.front();
        if (storeFetchBlocked(addr))
            break;
        pendingStoreFetches_.pop_front();
        if (!llc_.contains(addr) && mshr_.count(addr) == 0)
            issueStoreFetch(addr);
    }

    if (needsIssue_ == 0)
        return;
    for (auto &rec : rob_) {
        if (rec.state != Record::State::NeedsIssue)
            continue;
        if (retryBlockedAt(rec))
            break;
        auto it = mshr_.find(rec.addr);
        if (it != mshr_.end()) {
            if (it->second.isPrefetch) {
                it->second.isPrefetch = false;
                --prefetchInflight_;
                send(ReqType::Read, rec.addr, rec.issueAt);
            }
            it->second.waiters.push_back(&rec);
            setState(rec, Record::State::MemPending);
        } else if (llc_.contains(rec.addr)) {
            hitLocally(rec);
        } else {
            tryIssueLoad(rec);
        }
    }
}

void
CoreModel::registerStats(StatGroup &group) const
{
    group.add("loads", &loads_, "load instructions executed");
    group.add("stores", &stores_, "store instructions executed");
    group.add("llc_misses", &llcMisses_, "LLC misses");
    group.add("mem_reads", &memReads_, "memory reads issued");
    group.add("writebacks", &memWritebacks_, "writebacks issued");
    group.add("prefetch_issued", &prefetchIssued_,
              "prefetch requests sent to the controller");
    group.add("prefetch_useful", &prefetchUseful_,
              "prefetched lines touched by demand accesses");
    group.add("rob_stall_cycles", &robStallCycles_,
              "CPU cycles with retirement blocked on memory");
    group.addFormula(
        "ipc", [this] { return ipc(); },
        "instructions per CPU cycle over the measured region");
}

} // namespace memsec::cpu
