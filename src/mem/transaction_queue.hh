/**
 * @file
 * Per-security-domain transaction queue.
 *
 * The proposed microarchitecture (Section 5.1) keeps one queue per
 * domain so the arriving transaction's domain tag selects a queue and
 * no cross-domain state is shared. The same structure doubles as the
 * baseline's transaction queue (the baseline scheduler simply scans
 * all queues).
 */

#ifndef MEMSEC_MEM_TRANSACTION_QUEUE_HH
#define MEMSEC_MEM_TRANSACTION_QUEUE_HH

#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "mem/request.hh"

namespace memsec {
class Component;
class Serializer;
class Deserializer;
} // namespace memsec

namespace memsec::mem {

/** Running sums over a controller's queues, kept up to date by every
 *  push, take and restore so nothing has to loop over the queues.
 *  Derived, never serialized. */
struct QueueTotals
{
    size_t reads = 0;       ///< queued reads (incl. prefetches)
    size_t writes = 0;      ///< queued writes
    uint64_t mutations = 0; ///< sum of the queues' mutations()
};

/**
 * FIFO of pending transactions with predicate-based extraction.
 * Reads and writes have separate capacity budgets (the physical
 * design has distinct read and write queues; a burst of writebacks
 * must not crowd out demand loads).
 */
class TransactionQueue
{
  public:
    /**
     * Compact copy of the fields FR-FCFS selects on, kept per class
     * (reads, writes) in queue order beside the owned requests, so
     * its per-tick scan reads one contiguous array of the class it
     * serves instead of chasing MemRequest pointers. The copied
     * fields never change while a request is queued.
     */
    struct Entry
    {
        MemRequest *req = nullptr; ///< owned by the queue
        Cycle arrival = 0;
        ReqId id = 0;
        unsigned row = 0;
        unsigned rank = 0;
        unsigned bank = 0;
    };

    /** `totals`, if given, must outlive the queue. */
    TransactionQueue(size_t readCapacity, size_t writeCapacity,
                     QueueTotals *totals = nullptr);

    /** The component to poke when a take frees a full read or write
     *  budget (a blocked client sleeps on full()); null for none. */
    void setClient(Component *client) { client_ = client; }

    size_t readCapacity() const { return readCap_; }
    size_t writeCapacity() const { return writeCap_; }
    size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    /** True if a request of the given type cannot be accepted. */
    bool full(ReqType type) const
    {
        return type == ReqType::Write ? writeCount() >= writeCap_
                                      : readCount() >= readCap_;
    }

    /** Number of queued reads (incl. prefetches). */
    size_t readCount() const { return reads_; }
    /** Number of queued writes. */
    size_t writeCount() const { return size() - reads_; }

    /** Enqueue; panics if full (callers must check full() first). */
    void push(std::unique_ptr<MemRequest> req);

    /** Oldest entry or nullptr. */
    const MemRequest *head() const;

    /** Entry at position i (0 = oldest). */
    const MemRequest *at(size_t i) const { return entries_.at(i).get(); }

    /**
     * The queued writes (`writes`) or reads (incl. prefetches), oldest
     * first. Non-const because it hands out the requests themselves
     * (a scheduler stamps firstCommand on a queued request).
     */
    std::span<const Entry> view(bool writes) { return views_[writes]; }

    /**
     * Bumped by every push, take, pop and restore: equal values mean
     * the queue's contents are unchanged. Derived, never serialized.
     */
    uint64_t mutations() const { return mutations_; }

    /** Oldest entry satisfying pred, or nullptr. A const queue hands
     *  out a const pointer — the old single const method returned a
     *  mutable MemRequest*, silently laundering away constness. */
    MemRequest *
    findOldest(const std::function<bool(const MemRequest &)> &pred);
    const MemRequest *
    findOldest(const std::function<bool(const MemRequest &)> &pred) const;

    /** Remove and return the oldest entry; queue must be non-empty. */
    std::unique_ptr<MemRequest> popOldest();

    /** Remove and return the given entry (must be present). */
    std::unique_ptr<MemRequest> take(const MemRequest *req);

    /** True if a queued write covers the same line address. */
    bool hasWriteTo(Addr lineAddr) const;

    /** True if a queued entry of any type covers the line. */
    bool hasEntryFor(Addr lineAddr) const;

    /** Maps a restored request (by domain) back to its live
     *  completion sink. */
    using ClientOf = std::function<MemClient *(const MemRequest &)>;

    void saveState(Serializer &s) const;

    /** Restore entries; `clientOf` rebinds each request that had a
     *  client when saved. */
    void restoreState(Deserializer &d, const ClientOf &clientOf);

  private:
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar, const ClientOf &clientOf);

    size_t readCap_ = 0;
    size_t writeCap_ = 0;
    size_t reads_ = 0;
    std::deque<std::unique_ptr<MemRequest>> entries_;
    std::vector<Entry> views_[2]; ///< [write]: entries_ of one class
    uint64_t mutations_ = 0;
    QueueTotals *totals_ = nullptr;
    Component *client_ = nullptr;
};

} // namespace memsec::mem

#endif // MEMSEC_MEM_TRANSACTION_QUEUE_HH
