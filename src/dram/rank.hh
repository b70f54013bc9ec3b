/**
 * @file
 * Per-rank DRAM state: banks, rank-level timing windows (tRRD, tFAW,
 * column-command turnaround), power state, and energy event counters.
 */

#ifndef MEMSEC_DRAM_RANK_HH
#define MEMSEC_DRAM_RANK_HH

#include <deque>
#include <vector>

#include "dram/bank.hh"
#include "dram/timing.hh"
#include "sim/types.hh"

namespace memsec {
class Serializer;
class Deserializer;
} // namespace memsec

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
};

/** One rank: a set of banks sharing activation and column resources. */
class Rank
{
  public:
    Rank(unsigned banks, const TimingParams &tp);

    Bank &bank(unsigned b) { return banks_.at(b); }
    const Bank &bank(unsigned b) const { return banks_.at(b); }
    unsigned numBanks() const { return static_cast<unsigned>(banks_.size()); }

    /** Earliest cycle an ACT may issue rank-wide (tRRD + tFAW). */
    Cycle nextActRankLimit() const;

    /** Earliest cycle a column-read may issue rank-wide. */
    Cycle nextRead() const { return nextRead_; }
    /** Earliest cycle a column-write may issue rank-wide. */
    Cycle nextWrite() const { return nextWrite_; }

    /** Record an ACT at cycle t (updates tRRD/tFAW windows). A
     *  suppressed ACT keeps all timing state but is not charged to
     *  the activate energy counter (energy optimisation 1). */
    void recordActivate(Cycle t, bool suppressed = false);

    /** Record a column read at cycle t. */
    void recordRead(Cycle t);

    /** Record a column write at cycle t. */
    void recordWrite(Cycle t);

    /** True iff any bank has an open row. */
    bool anyBankOpen() const;

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

    /** Per-cycle energy accounting; call once per cycle. */
    void tickEnergy(Cycle now);

    /**
     * tickEnergy() for every cycle in [from, to) at once. Valid only
     * while no command issues in the span: bank open/closed state and
     * power-down are command-driven, so the only transition inside an
     * idle span is a refresh completing at refreshEnd_.
     */
    void accountEnergySpan(Cycle from, Cycle to);

    const RankEnergyCounters &energy() const { return energy_; }
    RankEnergyCounters &energy() { return energy_; }

    /** Current power state (derived). */
    PowerState powerState(Cycle now) const;

    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

  private:
    const TimingParams &tp_;
    std::vector<Bank> banks_;

    Cycle nextActRrd_ = 0;
    std::deque<Cycle> actWindow_; ///< recent ACT times for tFAW
    Cycle nextRead_ = 0;
    Cycle nextWrite_ = 0;

    Cycle refreshEnd_ = 0;
    bool poweredDown_ = false;
    Cycle pdEnteredAt_ = 0;
    Cycle pdExitReadyAt_ = 0;

    RankEnergyCounters energy_;
};

} // namespace memsec::dram

#endif // MEMSEC_DRAM_RANK_HH
