/**
 * @file
 * The memory-controller shell: per-domain transaction queues, a
 * pluggable scheduling policy, the DRAM device model, and the
 * completion path back to the cores.
 *
 * The controller is policy-free; all ordering decisions live in the
 * Scheduler strategy object (src/sched). This mirrors the paper's
 * observation that only the transaction scheduler changes between the
 * baseline and FS designs.
 */

#ifndef MEMSEC_MEM_MEMORY_CONTROLLER_HH
#define MEMSEC_MEM_MEMORY_CONTROLLER_HH

#include <deque>
#include <memory>
#include <vector>

#include "dram/dram_system.hh"
#include "mem/address_map.hh"
#include "mem/request.hh"
#include "mem/transaction_queue.hh"
#include "sim/simulator.hh"
#include "sim/types.hh"
#include "stats/stats.hh"

namespace memsec::sched {
class Scheduler;
}

namespace memsec::mem {

/** Controller-wide statistics. */
struct ControllerStats
{
    Counter demandReads;     ///< demand reads accepted
    Counter writes;          ///< writebacks accepted
    Counter prefetches;      ///< prefetch reads accepted
    Counter dummies;         ///< dummy operations issued by the scheduler
    Counter forwarded;       ///< reads served by store-to-load forwarding
    Counter mergedWrites;    ///< writes merged with a queued write
    Counter mergedWithPrefetch; ///< demand reads riding a queued prefetch
    Counter realBursts;      ///< data bursts carrying real data
    Counter dummyBursts;     ///< data bursts carrying dummy data
    Counter overflowDrops;   ///< transactions dropped on queue overflow
    Average readLatency;     ///< demand-read latency, memory cycles
    Histogram readLatencyHist;
    /**
     * Client-observed read latency per security domain, for the
     * p50/p99/p99.9 SLA tables. Accounted from MemRequest::issued
     * (the open-loop arrival stamp) when present, else from
     * controller arrival; reset at beginMeasurement() so warmup
     * transients stay out of the percentiles.
     */
    std::vector<Histogram> domainReadLatency;

    template <class Self, class Ar>
    static void io(Self &self, Ar &ar)
    {
        ar.io(self.demandReads, self.writes, self.prefetches, self.dummies,
              self.forwarded, self.mergedWrites, self.mergedWithPrefetch,
              self.realBursts, self.dummyBursts, self.overflowDrops,
              self.readLatency, self.readLatencyHist);
        ar.sized(self.domainReadLatency,
                 "domain latency histogram count mismatch");
    }
};

/** One channel's memory controller. */
class MemoryController : public Component
{
  public:
    struct Params
    {
        dram::TimingParams timing;
        dram::Geometry geo;
        unsigned numDomains = 8;
        size_t queueCapacity = 32;
    };

    MemoryController(std::string name, const Params &params,
                     const AddressMap &map);
    ~MemoryController() override;
    // The queues keep the address of queueTotals_.
    MemoryController(const MemoryController &) = delete;
    MemoryController &operator=(const MemoryController &) = delete;

    /** Install the scheduling policy; must happen before ticking. */
    void setScheduler(std::unique_ptr<sched::Scheduler> sched);

    // ---- core-facing interface ----

    /**
     * Register the completion sink serving `domain`. Serialized
     * requests store only a has-client bit; restoreState() rebinds
     * them to the client registered here, so every client must
     * register before restore (CoreModel does so in its constructor).
     * A client that is also a Component is poked whenever its
     * domain's queue frees a full read or write budget.
     */
    void registerClient(DomainId domain, MemClient *client);

    /** Registered client for a domain, or null. */
    MemClient *clientFor(DomainId domain) const;

    /** True if a new request of this type from `domain` can be
     *  queued this cycle (reads and writes budget separately). */
    bool canAccept(DomainId domain, ReqType type = ReqType::Read) const;

    /**
     * Accept a transaction. Decodes the address, performs store-to-
     * load forwarding and write merging, then enqueues. now = current
     * memory cycle.
     */
    void access(std::unique_ptr<MemRequest> req, Cycle now);

    // ---- scheduler-facing interface ----

    TransactionQueue &queue(DomainId domain);
    const TransactionQueue &queue(DomainId domain) const;
    /** Sums and the bank index over every domain's queue. */
    const QueueTotals &queueTotals() const { return queueTotals_; }
    /** As above, for the FR-FCFS engine, which consumes the bank
     *  index's changed-bank masks; nothing else may change. */
    QueueTotals &queueTotals() { return queueTotals_; }

    /**
     * Per-domain prefetch candidate queue (Section 5.2: "a few-entry
     * prefetch queue beside each transaction queue"). Bounded; the
     * oldest candidate is dropped on overflow. FS consumes these in
     * dummy slots; the baseline converts them to transactions when
     * the queue has spare service.
     */
    std::deque<std::unique_ptr<MemRequest>> &prefetchQueue(DomainId d);
    unsigned numDomains() const
    {
        return static_cast<unsigned>(queues_.size());
    }

    dram::DramSystem &dram() { return dram_; }
    const dram::DramSystem &dram() const { return dram_; }
    const AddressMap &addressMap() const { return map_; }

    /**
     * Hand a request whose final CAS has issued to the completion
     * pipeline. completeAt is normally the data-burst end; secure
     * schedulers may defer it (e.g. en-masse return at interval end).
     */
    void finishRequest(std::unique_ptr<MemRequest> req, Cycle completeAt);

    /** Count a data burst for bandwidth stats. */
    void noteBurst(bool dummy);

    /** Count a dummy operation. */
    void noteDummy() { stats_.dummies.inc(); }

    // ---- simulation ----

    void tick(Cycle now) override;
    Cycle nextWakeCycle(Cycle now) const override;
    void fastForward(Cycle from, Cycle to) override;
    void saveState(Serializer &s) const override;
    void restoreState(Deserializer &d) override;

    const ControllerStats &stats() const { return stats_; }
    sched::Scheduler &scheduler();

    /** Reset the per-domain latency histograms at the warmup/measure
     *  boundary (called by the harness alongside the cores'
     *  beginMeasurement). Aggregate stats are untouched. */
    void beginMeasurement();

    /** Register this controller's stats into a group. */
    void registerStats(StatGroup &group) const;

    // ---- failure-path hardening ----

    /**
     * Route recoverable faults (queue overflow, illegal issues) here
     * instead of panicking; forwarded to the DRAM system too.
     */
    void setReport(RunReport *report);

    /**
     * Attach a fault injector to this controller, its DRAM system and
     * (if already installed) its scheduler.
     */
    void attachFaultInjector(fault::FaultInjector *inj);

    /** Effective (real-data) bus utilisation over elapsed cycles. */
    double effectiveBandwidth(Cycle elapsed) const;

  private:
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar);

    struct PendingCompletion
    {
        Cycle at = 0;
        uint64_t seq = 0; ///< tie-break to keep completion order stable
        std::unique_ptr<MemRequest> req;
        bool operator>(const PendingCompletion &o) const
        {
            return at != o.at ? at > o.at : seq > o.seq;
        }
    };

    static constexpr size_t kPrefetchQueueCap = 8;

    const AddressMap &map_;
    dram::DramSystem dram_;
    QueueTotals queueTotals_;
    // deque: TransactionQueue is move-only and constructed in place.
    std::deque<TransactionQueue> queues_;
    std::vector<std::deque<std::unique_ptr<MemRequest>>> prefetchQueues_;
    std::unique_ptr<sched::Scheduler> sched_;
    /** Min-heap on (at, seq) under std::greater: front() is due
     *  first. */
    std::vector<PendingCompletion> completions_;
    uint64_t completionSeq_ = 0;
    ReqId reqIdSeq_ = 0;
    std::vector<MemClient *> clients_; ///< completion sink per domain
    ControllerStats stats_;
    RunReport *report_ = nullptr;
    fault::FaultInjector *injector_ = nullptr;
};

} // namespace memsec::mem

#endif // MEMSEC_MEM_MEMORY_CONTROLLER_HH
