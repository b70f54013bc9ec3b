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
 * class) the oldest row-hit entry, the oldest other entry, their ages
 * and their commands' bank floors (dram::Bank::floor()), and per rank
 * the rank floors (DramSystem::rankFloor()). A candidate's legal
 * cycle is the max of the two; no timing rule is restated here. A
 * rank's floors are re-read when its version moved (the CAS floors
 * also when the data bus version moved); a bank is re-read only when
 * its rank moved or the index marked its bucket changed, and its
 * bucket re-walked only when the bucket or the open row changed.
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

    /** (arrival, id): the age order, total since ids are unique. */
    struct Age
    {
        Cycle arrival = 0;
        ReqId id = 0;

        bool before(const Age &o) const
        {
            return arrival < o.arrival ||
                   (arrival == o.arrival && id < o.id);
        }
    };

    /** Slots of RankFloors::floor, one per command the engine
     *  issues. */
    enum FloorSlot : unsigned { kAct, kPre, kRd, kWr };

    /**
     * One bank's pick for one class, as of its last re-read: the
     * oldest entry hitting the open row (it needs a CAS) and the
     * oldest other entry (an ACT if the bank is closed, else a PRE),
     * with their ages and their commands' bank floors (kNoCycle for
     * a missing entry).
     */
    struct BankPick
    {
        Cycle hitFloor = kNoCycle;
        Cycle missFloor = kNoCycle;
        Age hitAge;
        Age missAge;
        unsigned rank = 0;
        FloorSlot missSlot = kAct; ///< kAct if closed, else kPre
        unsigned bank = 0;
        unsigned openRow = dram::Bank::kNoRow; ///< kNoRow: closed
        const Entry *hit = nullptr;
        const Entry *miss = nullptr;
    };

    /** One rank's floors by command, as of rank version `version`
     *  and, for the CAS floors, data bus version `casBus`. */
    struct RankFloors
    {
        Cycle floor[4] = {0, 0, 0, 0}; ///< [FloorSlot]
        uint64_t version = ~0ull;
        uint64_t casBus[2] = {~0ull, ~0ull}; ///< [write]
    };

    /** Re-read every rank's floors the served class needs (`writes`)
     *  where they moved, marking the banks of a moved rank (only the
     *  commanded bank when the engine's own last command is all that
     *  moved: a bank command changes no other bank's state). */
    void syncRanks(bool writes);
    /** Re-read rank `r`'s ACT and PRE floors; its CAS floors go stale. */
    void rereadRank(unsigned r);
    /** Mark flat bank `flat` for a re-read in both classes. */
    void markStale(unsigned flat);
    /** Issue `cmd` at `now`, noting it as the engine's own command. */
    dram::IssueResult issue(const dram::Command &cmd, Cycle now);
    /** Re-read every nonempty bank of the class that a rank move or
     *  a bucket change marked. */
    void syncBanks(bool writes);
    /** Re-read bank `flat`'s pick for the class; re-walk its bucket
     *  if `rewalk` or the open row changed. */
    void rereadBank(bool writes, unsigned flat, bool rewalk);
    /** Mark every bank for a re-read and a re-walk. */
    void markAll();

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

    // Derived pick state, never serialized; a restore marks it all.
    mem::BankIndex &index_;
    std::vector<BankPick> picks_[2];     ///< [write][flat bank]
    std::vector<RankFloors> rankFloors_; ///< [rank]
    /** legalityVersion() the ACT and PRE floors and the marks were
     *  synced at, and each class's CAS floors. */
    uint64_t syncedLegality_ = ~0ull;
    uint64_t casSynced_[2] = {~0ull, ~0ull};
    /** The engine's own last command, if the legalityVersion() it
     *  left is `at` and nothing else moved since the sync before it. */
    struct OwnCommand
    {
        uint64_t at = ~0ull;
        unsigned rank = 0;
        unsigned bank = 0;
    } own_;
    std::vector<uint64_t> stale_[2];  ///< [write]: banks to re-read
    std::vector<uint64_t> rewalk_[2]; ///< [write]: buckets to re-walk
    /** Per tick: the served class's banks with a ready miss. */
    std::vector<uint64_t> readyMisses_;

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
