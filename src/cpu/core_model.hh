/**
 * @file
 * Trace-driven out-of-order core model.
 *
 * The model captures what the paper's results depend on — the
 * coupling between memory latency and instruction throughput through
 * a finite reorder buffer — without modelling ISA semantics:
 *  - a 64-entry ROB dispatches trace records in order;
 *  - memory operations execute at dispatch (LLC lookup, miss issue);
 *  - retirement is in order, `retireWidth` instructions per CPU
 *    cycle; a load blocks retirement until its data returns, a store
 *    retires through the store buffer;
 *  - memory-level parallelism is bounded by the ROB and the
 *    per-benchmark MSHR count.
 *
 * Each core owns a private LLC slice (the paper's shared L2 must be
 * partitioned for the end-to-end system to be leak-free) and an
 * optional sandbox prefetcher.
 */

#ifndef MEMSEC_CPU_CORE_MODEL_HH
#define MEMSEC_CPU_CORE_MODEL_HH

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "core/noninterference.hh"
#include "cpu/prefetcher.hh"
#include "cpu/trace.hh"
#include "mem/memory_controller.hh"
#include "sim/simulator.hh"
#include "stats/stats.hh"

namespace memsec::cpu {

/**
 * Counts of the process-wide functional-warmup memo. Warm state is a
 * pure function of warmupKey() (cpu/trace.hh): the inputs the warm
 * kernel reads, resolved into a WarmSpec, and no others. A core whose
 * key was warmed earlier in the process copies that LLC and generator
 * state instead of replaying the records, also when its profile
 * differs in a field warmup never reads (a covert sender's window).
 * Only synthetic generators are memoized; trace-file and open-loop
 * cores replay every time.
 */
struct WarmupMemoStats
{
    uint64_t hits = 0;     ///< warm state copied from the memo
    uint64_t misses = 0;   ///< warmup replayed, then memoized
    uint64_t bypasses = 0; ///< warmup replayed without the memo
};

WarmupMemoStats warmupMemoStats();

/** Forget every memoized warm state and zero the counts (tests). */
void resetWarmupMemo();

/** One simulated hardware thread / security domain. */
class CoreModel : public Component, public mem::MemClient
{
  public:
    struct Params
    {
        unsigned robSize = 64;
        unsigned retireWidth = 4;
        unsigned cpuMult = kDefaultCpuMult;
        unsigned llcHitLatency = 10; ///< CPU cycles
        uint64_t llcBytes = 512 * 1024;
        unsigned llcWays = 8;
        bool prefetchEnabled = false;
        /** Instructions per progress checkpoint (0 = no capture). */
        uint64_t progressInterval = 0;
        /** Record the per-request service timeline. */
        bool captureTimeline = false;
        /** Trace records replayed functionally (no timing) through
         *  the LLC at construction — the stand-in for the paper's
         *  50-billion-instruction fast-forward. */
        uint64_t functionalWarmupRecords = 0;
        /** LRU bound of the process-wide warmup memo while this core
         *  is built; the harness passes the system's core count.
         *  0 runs the warmup unmemoized. */
        unsigned warmupMemoEntries = 0;
    };

    CoreModel(std::string name, DomainId domain, const Params &params,
              const WorkloadProfile &profile, uint64_t traceSeed,
              mem::MemoryController &mc);

    void tick(Cycle now) override;
    Cycle nextWakeCycle(Cycle now) const override;
    void fastForward(Cycle from, Cycle to) override;
    void saveState(Serializer &s) const override;
    void restoreState(Deserializer &d) override;
    void memResponse(const mem::MemRequest &req) override;
    void memDropped(const mem::MemRequest &req) override;

    uint64_t retired() const { return retired_; }
    /** One past the last memory cycle that retired an instruction:
     *  the watchdog's progress probe. */
    Cycle progressCycle() const { return progressCycle_; }

    /** How many of the next CPU sub-cycles are quiet: with dispatch
     *  blocked, the first `k = gap / retireWidth` retire a full width
     *  of the head's gap; sub-cycle k retires the rest and stalls on
     *  the memory op until it is ready. kNever while the op waits on
     *  memory (a poke ends that); 0 if the next does real work. */
    uint64_t quietSubCycles() const;
    static constexpr uint64_t kNever = UINT64_MAX;
    /** The ROB head's gap instructions not yet retired. */
    uint64_t gapLeft() const
    {
        return rob_.empty() ? 0 : rob_.front().gapLeft();
    }
    double ipc() const;

    /** Freeze the IPC measurement start point (end of warmup). */
    void beginMeasurement();

    const core::VictimTimeline &timeline() const { return timeline_; }
    const cache::Cache &llc() const { return llc_; }

    void registerStats(StatGroup &group) const;

    uint64_t prefetchIssued() const { return prefetchIssued_.value(); }
    uint64_t prefetchUseful() const { return prefetchUseful_.value(); }

  private:
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar);

    struct Record
    {
        uint64_t instrs = 1;      ///< gap + the memory op itself
        uint64_t retiredOfThis = 0;
        bool isStore = false;
        Addr addr = 0;
        enum class State : uint8_t
        {
            Done,       ///< retirable
            LlcPending, ///< waiting for the LLC hit latency
            MemPending, ///< waiting for memory data
            NeedsIssue, ///< load miss blocked on MSHR/queue space
        } state = State::Done;
        CpuCycle doneAt = 0; ///< for LlcPending
        /** Open-loop issue stamp (TraceRecord::issueAt), kNoCycle
         *  for closed-loop records. */
        Cycle issueAt = kNoCycle;

        /** Gap instructions not yet retired. */
        uint64_t gapLeft() const
        {
            return instrs > retiredOfThis + 1 ? instrs - retiredOfThis - 1
                                              : 0;
        }

        friend constexpr State enumLast(State) { return State::NeedsIssue; }

        template <class Self, class Ar>
        static void io(Self &self, Ar &ar)
        {
            ar.io(self.instrs, self.retiredOfThis, self.isStore, self.addr,
                  self.state, self.doneAt, self.issueAt);
        }
    };

    struct MshrEntry
    {
        std::vector<Record *> waiters;
        bool fillDirty = false;
        bool isPrefetch = false;
        bool demandTouched = false; ///< usefulness counted already
    };

    /** Replay params_.functionalWarmupRecords records through the
     *  LLC with no timing, or copy the identical warm state from the
     *  process-wide memo (see WarmupMemoStats). */
    void functionalWarmup(uint64_t traceSeed);
    /** Single point of ROB state transition, so the NeedsIssue count
     *  used by the retry/wake fast paths can never drift. */
    void setState(Record &rec, Record::State s);
    /** The line is local: a store is done, a load waits the hit. */
    void hitLocally(Record &rec);
    void dispatch();
    void retire();
    /** Retire up to `max` of the head's gap; returns how many. */
    uint64_t retireGap(uint64_t max);
    /** Progress marks (instruction `before + i` retires at sub-cycle
     *  (i - 1) / retireWidth) and progress cycle after retirement;
     *  `lastMem` is the last retiring sub-cycle's memory cycle. */
    void noteRetired(uint64_t before, Cycle lastMem);
    /** n <= quietSubCycles() sub-cycles in closed form, the first
     *  being sub-cycle `sub` of memory cycle `mem`. */
    void skipQuiet(uint64_t n, Cycle mem, uint64_t sub);
    void executeMemOp(Record &rec);
    void send(mem::ReqType type, Addr addr, Cycle issueAt = kNoCycle);
    bool tryIssueLoad(Record &rec);
    void issueStoreFetch(Addr addr);
    void issuePrefetches(Addr missAddr);
    void drainWritebacks();
    void retryBlocked();
    /** retryBlocked()'s gating, read by it and by nextWakeCycle():
     *  true if the pass stops at this store fetch / NeedsIssue record. */
    bool storeFetchBlocked(Addr addr) const;
    bool retryBlockedAt(const Record &rec) const;
    /** A demand MSHR and a queue slot are both free. */
    bool canIssueDemand() const;
    size_t demandMshrs() const;

    DomainId domain_ = 0;
    Params params_;
    WorkloadProfile profile_;
    std::unique_ptr<TraceGenerator> trace_;
    mem::MemoryController &mc_;
    cache::Cache llc_;
    SandboxPrefetcher prefetcher_;

    std::deque<Record> rob_;
    uint64_t robInstrs_ = 0;
    /** ROB records in NeedsIssue state — derived from rob_, rebuilt
     *  on restore. Zero lets retryBlocked()/nextWakeCycle() skip
     *  their ROB scans, the hot path of a memory-blocked core. */
    size_t needsIssue_ = 0;
    /** Keyed by line addr; ordered so checkpoints serialize it in a
     *  deterministic order. */
    std::map<Addr, MshrEntry> mshr_;
    size_t prefetchInflight_ = 0;
    std::deque<Addr> pendingStoreFetches_;
    std::deque<Addr> writebacks_;
    Cycle memNow_ = 0;

    CpuCycle cpuCycles_ = 0;
    uint64_t retired_ = 0;
    Cycle progressCycle_ = 0; ///< derived; the kernel saves its books
    CpuCycle measureStartCycle_ = 0;
    uint64_t measureStartRetired_ = 0;

    core::VictimTimeline timeline_;
    uint64_t nextProgressMark_ = 0;

    Counter loads_;
    Counter stores_;
    Counter llcMisses_;
    Counter memReads_;
    Counter memWritebacks_;
    Counter prefetchIssued_;
    Counter prefetchUseful_;
    Counter robStallCycles_;
};

} // namespace memsec::cpu

#endif // MEMSEC_CPU_CORE_MODEL_HH
