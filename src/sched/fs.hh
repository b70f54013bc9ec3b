/**
 * @file
 * Fixed-Service (FS) scheduler family — the paper's contribution.
 *
 * Every security domain is shaped to one closed-row transaction per
 * assigned slot; slots recur every l cycles (from the pipeline
 * solver) and cycle round-robin over domains, so the frame length is
 * Q = slots * l. A domain with nothing pending gets a dummy operation
 * (or a prefetch, or a power-down, depending on the enabled
 * optimisations). Because the slot template is fixed, every command
 * lands in a precomputed conflict-free cycle; the DRAM model's
 * independent TimingChecker verifies this on every run.
 *
 * Modes:
 *  - RankPart:  l = 7 (fixed periodic data), adjacent slots in
 *               different ranks (Section 3.1)
 *  - BankPart:  l = 15 (fixed periodic RAS), adjacent slots in
 *               different banks (Section 4.2)
 *  - NoPart:    l = 43, any slot may reuse any bank (Section 4.3)
 *  - TripleAlt: l = 15 with rotating bank-id-mod-3 groups; same-group
 *               slots are >= 3*l >= 45 cycles apart, satisfying the
 *               43-cycle same-bank reuse bound (Section 4.3)
 */

#ifndef MEMSEC_SCHED_FS_HH
#define MEMSEC_SCHED_FS_HH

#include <vector>

#include "core/pipeline_solver.hh"
#include "core/slot_schedule.hh"
#include "sched/closed_row_plan.hh"
#include "sched/scheduler.hh"
#include "util/random.hh"

namespace memsec::sched {

/** Spatial-partitioning mode of the FS pipeline. */
enum class FsMode : uint8_t { RankPart, BankPart, NoPart, TripleAlt };

const char *fsModeName(FsMode m);

/** Slot-table Fixed-Service scheduler. */
class FsScheduler : public Scheduler
{
  public:
    struct Params
    {
        FsMode mode = FsMode::RankPart;
        bool prefetchInDummies = false; ///< Section 5.2 prefetch slots
        bool suppressDummies = false;   ///< energy optimisation 1
        bool rowBufferBoost = false;    ///< energy optimisation 2
        bool powerDown = false;         ///< energy optimisation 3 (RP only)
        /** Issue slots per domain per frame (SLA weights); empty means
         *  one slot each. */
        std::vector<unsigned> slotWeights;
        /**
         * Pin the pipeline's periodic reference instead of taking the
         * smallest-l solution for the partition level (fs.ref). The
         * paper tabulates five (reference, partition) design points,
         * but solveBest() only ever reaches the per-level winners
         * (data/rank l=7, RAS/bank l=15, RAS/none l=43); pinning the
         * reference lets analyses — notably the noninterference
         * certifier's five-point sweep — instantiate rank/RAS (l=12)
         * and bank/data (l=21) through the real scheduler too.
         */
        bool pinRef = false;
        core::PeriodicRef ref = core::PeriodicRef::Data;
        uint64_t rngSeed = 0x5eedf00d;
        /**
         * Deterministic refresh epochs: every tREFI the pipeline
         * pauses at a wall-clock-fixed point, refreshes every rank
         * back-to-back, and resumes. The schedule depends on nothing
         * any domain does, so non-interference is preserved (the
         * paper's analysis ignores refresh; this is the extension a
         * deployable controller needs).
         */
        bool refresh = false;
    };

    /** Fatal unless tripleError(), powerDownError() and
     *  weightsError() accept `params` on `mc`. */
    FsScheduler(mem::MemoryController &mc, const Params &params);

    /** Why triple alternation cannot run on a map partitioned by
     *  `part`, or "". */
    static std::string tripleError(const Params &p, mem::Partition part);
    /** Why `p` cannot power ranks down, or "". */
    static std::string powerDownError(const Params &p);
    /** Why `p`'s slot weights do not fit `domains` domains, or "". */
    static std::string weightsError(const Params &p, unsigned domains);

    void tick(Cycle now) override;
    Cycle nextWakeCycle(Cycle now) const override;
    std::string name() const override;
    void registerStats(StatGroup &group) const override;

    /**
     * Slot-skew injection point: real (non-dummy) operations planned
     * while the injector fires get their command cycles shifted,
     * modelling a scheduler that leaks timing by letting transaction
     * content perturb the fixed slot template. The noninterference
     * audit must flag the resulting divergence.
     */
    void attachFaultInjector(fault::FaultInjector *inj) override
    {
        injector_ = inj;
    }

    /** Apply deferred energy accounting (power-down credits). */
    void finalize(Cycle now) override;

    void saveState(Serializer &s) const override;
    void restoreState(Deserializer &d) override;

    unsigned slotSpacing() const { return tmpl_.spacing(); }
    Cycle frameLength() const { return tmpl_.frameLength(); }
    /** The frame this scheduler executes. */
    const core::SlotTemplate &slotTemplate() const { return tmpl_; }

    uint64_t realOps() const { return realOps_.value(); }
    uint64_t dummyOps() const { return dummyOps_.value(); }
    uint64_t prefetchOps() const { return prefetchOps_.value(); }

    /** End of rank `r`'s current power-down frame (energy opt 3); the
     *  rank is powered down at `now` iff this is later. */
    Cycle poweredDownUntil(unsigned r) const { return rankDownUntil_.at(r); }

  private:
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar);

    /** Builds everything from the one solver the public form makes. */
    FsScheduler(mem::MemoryController &mc, const Params &params,
                const core::PipelineSolver &solver);

    /** Pick and plan the operation for slot `slot` (decided at now). */
    void decideSlot(uint64_t slot, Cycle now);

    /** Plan the op's commands at slot `slot`'s template cycles. */
    void plan(std::unique_ptr<mem::MemRequest> req, bool write,
              bool dummy, uint64_t slot);

    void frameBoundary(uint64_t frame, Cycle now);

    Params params_;
    core::SlotTemplate tmpl_;
    ClosedRowPlan plan_;

    /** Last row used per (rank, bank), for the row-buffer boost. */
    std::vector<unsigned> lastRow_;

    std::vector<Rng> domainRng_;
    std::vector<size_t> dummyRr_; ///< per-domain dummy placement cursor

    /** Rank is (logically) powered down until this cycle (opt 3). */
    std::vector<Cycle> rankDownUntil_;
    std::vector<uint64_t> pdCreditCycles_;

    /** Next refresh-epoch start (kNoCycle when refresh disabled). */
    Cycle nextRefresh_ = kNoCycle;
    unsigned refreshRankCursor_ = 0;

    Counter realOps_;
    Counter dummyOps_;
    Counter prefetchOps_;
    Counter skippedSlots_;
    Counter hazardDeferrals_;
    Counter boostedActs_;
    Counter skewedOps_;

    fault::FaultInjector *injector_ = nullptr;
};

} // namespace memsec::sched

#endif // MEMSEC_SCHED_FS_HH
