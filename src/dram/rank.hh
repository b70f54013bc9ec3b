/**
 * @file
 * Per-rank DRAM state: banks, rank-level timing windows (tRRD, tFAW,
 * column-command turnaround), power state, and energy event counters.
 */

#ifndef MEMSEC_DRAM_RANK_HH
#define MEMSEC_DRAM_RANK_HH

#include <algorithm>
#include <deque>
#include <vector>

#include "dram/bank.hh"
#include "dram/timing.hh"
#include "sim/types.hh"

namespace memsec::dram {

/** Power state of a rank (for the energy model). */
enum class PowerState : uint8_t
{
    PrechargeStandby, ///< all banks closed, clock enabled
    ActiveStandby,    ///< at least one bank open
    PowerDown,        ///< precharge power-down (fast exit)
    Refreshing,       ///< executing a REF
};

/** Event counts consumed by the energy model. */
struct RankEnergyCounters
{
    uint64_t activates = 0;      ///< real row activations
    uint64_t reads = 0;          ///< real column reads
    uint64_t writes = 0;         ///< real column writes
    uint64_t suppressedActs = 0; ///< dummy ACTs suppressed (energy opt 1)
    uint64_t suppressedCas = 0;  ///< dummy CAS suppressed (energy opt 1)
    uint64_t refreshes = 0;
    uint64_t cyclesActive = 0;
    uint64_t cyclesPrecharge = 0;
    uint64_t cyclesPowerDown = 0;
    uint64_t cyclesRefreshing = 0;

    template <class Self, class Ar>
    static void io(Self &self, Ar &ar)
    {
        ar.io(self.activates, self.reads, self.writes, self.suppressedActs,
              self.suppressedCas, self.refreshes, self.cyclesActive,
              self.cyclesPrecharge, self.cyclesPowerDown,
              self.cyclesRefreshing);
    }
};

/**
 * One rank: a set of banks sharing activation and column resources.
 *
 * Every bank mutation goes through a Rank method, so the rank keeps an
 * exact open-bank count. Residency (the four cycle counters) is kept
 * lazily: the owner charges the books with chargeEnergy() just before
 * a command changes the rank's state, and reads them with energy(). Between two commands the only transition is a
 * refresh completing, which accountEnergySpan() splits at.
 */
class Rank
{
  public:
    Rank(unsigned banks, const TimingParams &tp);

    const Bank &bank(unsigned b) const { return banks_.at(b); }
    unsigned numBanks() const { return static_cast<unsigned>(banks_.size()); }

    /** Earliest cycle an ACT may issue rank-wide (tRRD + tFAW). */
    Cycle nextActRankLimit() const;

    /** Earliest cycle a column-read may issue rank-wide. */
    Cycle nextRead() const { return nextRead_; }
    /** Earliest cycle a column-write may issue rank-wide. */
    Cycle nextWrite() const { return nextWrite_; }

    /** ACT to bank `b` at cycle t opening `row` (bank windows plus
     *  tRRD/tFAW). A suppressed ACT keeps all timing state but is not
     *  charged to the activate energy counter (energy optimisation 1). */
    void activate(unsigned b, Cycle t, unsigned row, bool suppressed = false);

    /** Column read to bank `b` at cycle t, optionally auto-precharging.
     *  A suppressed CAS is counted as suppressedCas, not as a read. */
    void read(unsigned b, Cycle t, bool autoPre, bool suppressed = false);

    /** Column write; as read(). */
    void write(unsigned b, Cycle t, bool autoPre, bool suppressed = false);

    /** Explicit PRE to bank `b` at cycle t. */
    void precharge(unsigned b, Cycle t);

    /** True iff any bank has an open row. */
    bool anyBankOpen() const { return openBanks_ != 0; }

    /** Begin a refresh at cycle t; blocks all banks for tRFC. */
    void startRefresh(Cycle t);

    /** Cycle the current refresh (if any) completes; 0 if none. */
    Cycle refreshEndsAt() const { return refreshEnd_; }

    /** Enter precharge power-down at cycle t. */
    void enterPowerDown(Cycle t);

    /** Exit power-down at cycle t; commands legal at t + tXP. */
    void exitPowerDown(Cycle t);

    bool isPoweredDown() const { return poweredDown_; }

    /** Earliest legal power-down exit (tCKE residency). */
    Cycle earliestPdExit() const { return pdEnteredAt_ + tp_.cke; }

    /** Earliest cycle any command (incl. a new PDE) is legal after
     *  the last power-down exit (tXP). */
    Cycle pdExitReadyAt() const { return pdExitReadyAt_; }

    /** Charge residency from the last charge (or anchor) up to `to`,
     *  in the current state; call before any command changes it. */
    void chargeEnergy(Cycle to);

    /** Charge nothing before `at`: residency restarts there. */
    void anchorEnergy(Cycle at) { chargedTo_ = at; }

    /** The energy books with residency charged through cycle `to`
     *  (exclusive), without charging the rank itself. */
    RankEnergyCounters energy(Cycle to) const;

    /** Move up to `cycles` of charged precharge-standby residency to
     *  power-down (credit for power-down cycles never simulated). */
    void creditPowerDown(uint64_t cycles);

    /** Current power state (derived). */
    PowerState powerState(Cycle now) const;

    /** Checkpoint walk. A save writes the books charged through
     *  `energyClock`, so the bytes do not depend on when the rank was
     *  last charged; a restore takes them as charged and restarts
     *  residency at cycle 0 until the owner re-anchors it. */
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar, Cycle energyClock)
    {
        ar.section("rank");
        for (auto &b : self.banks_)
            ar.io(b);
        ar.io(self.nextActRrd_, self.actWindow_, self.nextRead_,
              self.nextWrite_, self.refreshEnd_, self.poweredDown_,
              self.pdEnteredAt_, self.pdExitReadyAt_);
        if constexpr (Ar::loading) {
            ar.io(self.energy_);
            self.chargedTo_ = 0;
            self.openBanks_ = static_cast<unsigned>(
                std::count_if(self.banks_.begin(), self.banks_.end(),
                              [](const Bank &b) { return b.isOpen(); }));
        } else {
            ar.io(self.energy(energyClock));
        }
    }

  private:
    /** The residency rule: add [from, to) to `e`. Valid only while no
     *  command issues in the span, so the only transition inside it
     *  is a refresh completing at refreshEnd_. */
    void accountEnergySpan(RankEnergyCounters &e, Cycle from,
                           Cycle to) const;

    /** Rank-wide halves of activate()/read()/write(). */
    void recordActivate(Cycle t);
    void recordRead(Cycle t);
    void recordWrite(Cycle t);

    /** Apply `op` to bank `b`, keeping the open-bank count exact. */
    template <typename Op>
    void mutateBank(unsigned b, Op &&op);

    const TimingParams &tp_;
    std::vector<Bank> banks_;
    unsigned openBanks_ = 0;

    Cycle nextActRrd_ = 0;
    std::deque<Cycle> actWindow_; ///< recent ACT times for tFAW
    Cycle nextRead_ = 0;
    Cycle nextWrite_ = 0;

    Cycle refreshEnd_ = 0;
    bool poweredDown_ = false;
    Cycle pdEnteredAt_ = 0;
    Cycle pdExitReadyAt_ = 0;

    RankEnergyCounters energy_;
    Cycle chargedTo_ = 0; ///< residency charged for [.., chargedTo_)
};

} // namespace memsec::dram

#endif // MEMSEC_DRAM_RANK_HH
