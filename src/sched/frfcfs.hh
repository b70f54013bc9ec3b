/**
 * @file
 * FR-FCFS+ engine and the non-secure baseline scheduler.
 *
 * The engine implements first-ready, first-come-first-served
 * scheduling with open-page row management, watermark-based write
 * draining, and optional prefetch promotion, over every domain's
 * queue at once: the baseline the paper's secure schemes are
 * normalised against.
 */

#ifndef MEMSEC_SCHED_FRFCFS_HH
#define MEMSEC_SCHED_FRFCFS_HH

#include <vector>

#include "sched/scheduler.hh"

namespace memsec::sched {

/**
 * One cycle of FR-FCFS decision-making over all domains. Stateless
 * between calls except for the read/write drain mode, the prefetch
 * throttle and derived (never serialized) per-bank picks and idle-skip
 * hint.
 *
 * A tick costs O(nonempty banks of the served class): it walks the
 * controller's bank index (mem::BankIndex), and keeps per (bank,
 * class) the oldest row-hit entry, the oldest other entry and their
 * legal cycles from DramSystem::earliestIssue(). A bank is re-derived
 * only when its bucket's serial or its rank's version moved, and its
 * CAS cycle re-asked when the data bus version moved.
 */
class FrFcfsEngine
{
  public:
    struct Options
    {
        size_t writeHiWatermark = 12; ///< enter drain mode at this many
        size_t writeLoWatermark = 4;  ///< leave drain mode at this many
        bool allowPrefetchPromote = false;
    };

    /** No rank is being drained for refresh. */
    static constexpr unsigned kNoRank = ~0u;

    FrFcfsEngine(mem::MemoryController &mc, const Options &opt);

    /**
     * Try to issue one command at `now`, leaving rank `avoidRank`
     * alone (it is being drained for refresh). Returns true if a
     * command was issued.
     */
    bool tick(Cycle now, unsigned avoidRank = kNoRank);

    /**
     * Earliest cycle > now at which tick() could issue or change
     * state, queried after tick(now). After a tick that issued
     * nothing and left the drain mode settled, this is the first
     * cycle any of its candidates becomes legal, valid while no queue
     * and no DRAM state has changed since; otherwise it is now + 1.
     * With prefetch promotion on it is also now + 1 while a prefetch
     * is promotable, and never past the next utilisation-window turn.
     */
    Cycle nextWakeCycle(Cycle now) const;

    /** Drain mode currently armed. */
    bool drainingWrites() const { return drainingWrites_; }

    uint64_t rowHits() const { return rowHits_; }
    uint64_t rowMisses() const { return rowMisses_; }
    uint64_t rowConflicts() const { return rowConflicts_; }

    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

  private:
    using Entry = mem::BankIndex::Entry;

    template <class Self, class Ar>
    static void io(Self &self, Ar &ar);

    /**
     * One bank's pick for one class: the oldest entry hitting the open
     * row (it needs a CAS at `hitAt`) and the oldest other entry (an
     * ACT if the bank is closed, else a PRE, at `missAt`), as of the
     * bucket serial and rank version they were derived at.
     */
    struct BankPick
    {
        unsigned rank = 0;
        unsigned bank = 0;
        uint64_t serial = ~0ull;      ///< Bucket::serial of hit and miss
        uint64_t rankVersion = ~0ull; ///< rankVersion() of the fields below
        bool open = false;
        unsigned openRow = 0;
        const Entry *hit = nullptr;
        const Entry *miss = nullptr;
        bool missKnown = false;
        Cycle missAt = kNoCycle;
        uint64_t hitBusVersion = ~0ull; ///< dataBusVersion() of hitAt
        Cycle hitAt = kNoCycle;
    };

    /** Bring bank `flat`'s pick for the class up to date. */
    const BankPick &refreshPick(bool writes, unsigned flat,
                                uint64_t busVersion);

    /** Drain mode the next updateDrainMode() would set. */
    bool nextDrainMode() const;

    /** Sum of the queues' mutation counters and the commands issued:
     *  unchanged iff no queue and no DRAM state has changed. */
    uint64_t epoch() const;

    void issueCas(const Entry &e, bool write, Cycle now);
    /** Domain d has a prefetch the throttle lets into its queue. */
    bool promotable(DomainId d) const;
    /** Move one promotable prefetch per domain into its queue;
     *  returns true if any moved. */
    bool promotePrefetches();

    mem::MemoryController &mc_;
    dram::DramSystem &dram_;
    Options opt_;
    /** Every domain's queue, bound once for prefetch promotion. */
    std::vector<mem::TransactionQueue *> queues_;
    unsigned banksPerRank_ = 0;
    bool drainingWrites_ = false;
    // Feedback-directed prefetch throttle: promotion is paused while
    // the data bus runs hot (prefetch waste would displace demand).
    Cycle utilWindowStart_ = 0;
    uint64_t utilWindowBusy_ = 0;
    bool prefetchUtilOk_ = true;
    uint64_t rowHits_ = 0;
    uint64_t rowMisses_ = 0;
    uint64_t rowConflicts_ = 0;

    const mem::BankIndex &index_;
    std::vector<BankPick> picks_[2]; ///< [write][flat bank], derived

    // Idle-skip hint of the last tick that issued nothing (derived,
    // never serialized; invalid after construction and restore).
    bool hintValid_ = false;
    Cycle hint_ = kNoCycle;
    uint64_t hintEpoch_ = 0;
};

/** The optimised non-secure baseline (stand-in for the MSC winner). */
class FrFcfsScheduler : public Scheduler
{
  public:
    explicit FrFcfsScheduler(mem::MemoryController &mc,
                             bool enablePrefetch = false,
                             bool refresh = false);

    void tick(Cycle now) override;
    Cycle nextWakeCycle(Cycle now) const override;
    std::string name() const override { return "frfcfs"; }
    void registerStats(StatGroup &group) const override;

    const FrFcfsEngine &engine() const { return engine_; }

    /** Refreshes issued so far (0 when refresh is disabled). */
    uint64_t refreshes() const { return refreshes_.value(); }

    void saveState(Serializer &s) const override;
    void restoreState(Deserializer &d) override;

  private:
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar);

    /** Progress the per-rank refresh state machine; returns true if
     *  a command (REF or a draining PRE) was issued this cycle. */
    bool serviceRefresh(Cycle now, unsigned &avoidRank);

    FrFcfsEngine engine_;
    bool refreshEnabled_ = false;
    std::vector<Cycle> nextRefresh_;
    Counter refreshes_;
};

} // namespace memsec::sched

#endif // MEMSEC_SCHED_FRFCFS_HH
