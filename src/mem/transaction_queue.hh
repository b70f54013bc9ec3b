/**
 * @file
 * Per-security-domain transaction queue and the controller-wide bank
 * index over every queue.
 *
 * The proposed microarchitecture (Section 5.1) keeps one queue per
 * domain so the arriving transaction's domain tag selects a queue and
 * no cross-domain state is shared. The same structure doubles as the
 * baseline's transaction queue: every queue also files its requests
 * into the controller's BankIndex, by (rank, bank, class), and the
 * FR-FCFS baseline picks from those buckets across all domains.
 */

#ifndef MEMSEC_MEM_TRANSACTION_QUEUE_HH
#define MEMSEC_MEM_TRANSACTION_QUEUE_HH

#include <cstdint>
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

/**
 * Every request queued at a controller, filed by (rank, bank, class)
 * so FR-FCFS visits the banks that have work instead of every queued
 * entry. A bucket is addressed by its flat bank `rank *
 * banksPerRank + bank` and its class (reads incl. prefetches, or
 * writes). Filed by TransactionQueue::push and restore, unfiled by
 * take; derived, never serialized. Each class also keeps a mask of
 * the banks whose bucket changed, which the one scheduler that reads
 * the buckets (FR-FCFS) consumes.
 */
class BankIndex
{
  public:
    /**
     * Copy of the fields FR-FCFS selects on, so its pick reads one
     * small array per bank instead of chasing MemRequest pointers.
     * The copied fields never change while a request is queued; `req`
     * is owned by its queue, and the scheduler serving it may stamp
     * it (firstCommand).
     */
    struct Entry
    {
        MemRequest *req = nullptr;
        Cycle arrival = 0;
        ReqId id = 0;
        unsigned row = 0;
        unsigned rank = 0;
        unsigned bank = 0;
    };

    /** One bank's queued entries of one class, in filing order. */
    struct Bucket
    {
        std::vector<Entry> entries;
    };

    BankIndex(unsigned ranks, unsigned banksPerRank);

    size_t numBanks() const { return buckets_[0].size(); }
    /** True if the request's (rank, bank) has a bucket. */
    bool holds(const MemRequest &r) const
    {
        return r.loc.rank < ranks_ && r.loc.bank < banksPerRank_;
    }

    const Bucket &bucket(bool writes, size_t flatBank) const
    {
        return buckets_[writes][flatBank];
    }

    /** Bit `flatBank` (LSB first, 64 per word) is set iff that bank
     *  has a queued entry of the class. */
    std::span<const uint64_t> nonempty(bool writes) const
    {
        return nonempty_[writes];
    }

    /** Bit `flatBank` (as nonempty()) is set iff a file or unfile
     *  touched that bank's bucket of the class since the last
     *  clearChanged(writes). */
    std::span<const uint64_t> changed(bool writes) const
    {
        return changed_[writes];
    }

    /** Clear the class's changed mask (its consumer has caught up). */
    void clearChanged(bool writes);

    /** True if a queued write from `r`'s domain covers `r`'s line.
     *  `r` must be decoded: a domain's line always decodes to one
     *  bank, so only that bank's write bucket is searched. */
    bool hasWriteTo(const MemRequest &r) const;

    /** File a request; panics if the index does not hold its bank. */
    void file(MemRequest &r);
    /** Remove a filed request. */
    void unfile(const MemRequest &r);

  private:
    size_t flatBank(const MemRequest &r) const
    {
        return static_cast<size_t>(r.loc.rank) * banksPerRank_ +
               r.loc.bank;
    }

    unsigned ranks_ = 0;
    unsigned banksPerRank_ = 0;
    std::vector<Bucket> buckets_[2];    ///< [write][flat bank]
    std::vector<uint64_t> nonempty_[2]; ///< [write]: bitmask of banks
    std::vector<uint64_t> changed_[2];  ///< [write]: bitmask of banks
};

/**
 * Controller-wide state over every domain's queue, kept up to date by
 * every push, take and restore so nothing has to loop over the
 * queues: running sums and the bank index. Reading it is a
 * cross-domain read (isolint flags it in the schedulers). Derived,
 * never serialized.
 */
struct QueueTotals
{
    QueueTotals(unsigned ranks, unsigned banksPerRank)
        : banks(ranks, banksPerRank)
    {
    }

    size_t reads = 0;       ///< queued reads (incl. prefetches)
    size_t writes = 0;      ///< queued writes
    uint64_t mutations = 0; ///< sum of the queues' mutations()
    BankIndex banks;        ///< every queued request by bank and class
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
    /** `totals`, if given, must outlive the queue; every request
     *  pushed must then fall inside its bank index. */
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
    /** Number of queued prefetches (promoted into the queue). */
    size_t prefetchCount() const { return prefetches_; }

    /** Enqueue; panics if full (callers must check full() first). */
    void push(std::unique_ptr<MemRequest> req);

    /** Oldest entry or nullptr. */
    const MemRequest *head() const;

    /** Entry at position i (0 = oldest). */
    const MemRequest *at(size_t i) const { return entries_.at(i).get(); }

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
    size_t prefetches_ = 0;
    std::deque<std::unique_ptr<MemRequest>> entries_;
    uint64_t mutations_ = 0;
    QueueTotals *totals_ = nullptr;
    Component *client_ = nullptr;
};

} // namespace memsec::mem

#endif // MEMSEC_MEM_TRANSACTION_QUEUE_HH
