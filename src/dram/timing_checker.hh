/**
 * @file
 * Independent JEDEC timing auditor.
 *
 * The checker maintains its own shadow of DRAM state, derived purely
 * from the command stream it is fed, and verifies every constraint the
 * paper's pipeline equations encode (plus row-management legality).
 * It deliberately duplicates the fast-path bookkeeping in Bank/Rank/
 * ChannelBuses: a bug in either implementation surfaces as a
 * disagreement, so the FS schedules are *demonstrated* conflict-free
 * rather than assumed so.
 *
 * Every violation is reported through a Violation record; in strict
 * mode (the default everywhere) a violation is a panic.
 */

#ifndef MEMSEC_DRAM_TIMING_CHECKER_HH
#define MEMSEC_DRAM_TIMING_CHECKER_HH

#include <concepts>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "dram/command.hh"
#include "dram/timing.hh"
#include "dram/timing_rules.hh"
#include "sim/types.hh"

namespace memsec {
class Serializer;
class Deserializer;
} // namespace memsec

namespace memsec::dram {

/** One detected rule violation. */
struct Violation
{
    Cycle cycle = 0;
    std::string rule;   ///< e.g. "tFAW", "cmd-bus", "row-state"
    std::string detail;

    template <class Self, class Ar>
    static void io(Self &self, Ar &ar)
    {
        ar.io(self.cycle, self.rule, self.detail);
    }
};

/** Shadow-model timing auditor for a single channel. */
class TimingChecker
{
  public:
    TimingChecker(const TimingParams &tp, unsigned ranks, unsigned banks);

    /**
     * Observe a command issued at cycle t. Returns true if legal.
     * In strict mode an illegal command panics instead of returning.
     */
    bool observe(const Command &cmd, Cycle t);

    /**
     * The first violationCap() violations, verbatim (non-strict mode
     * only). Later violations are still *counted* — see
     * violationCount() / violationsByRule() — but their records are
     * dropped so a fault campaign cannot grow memory without bound.
     */
    const std::vector<Violation> &violations() const { return violations_; }

    /** All violations ever detected, including ones past the cap. */
    uint64_t violationCount() const { return violationTotal_; }

    /** Per-rule-class violation totals (uncapped). */
    const std::map<std::string, uint64_t> &violationsByRule() const
    {
        return violationsByRule_;
    }

    /** Records kept verbatim before capping (default 128). */
    size_t violationCap() const { return violationCap_; }
    void setViolationCap(size_t cap) { violationCap_ = cap; }

    /** Number of commands checked. */
    uint64_t observed() const { return observed_; }

    /** Panic on violation (default) vs record-and-continue. */
    void setStrict(bool strict) { strict_ = strict; }

    /**
     * Arm the retention audit: once set, any non-REF command to a rank
     * that has not been refreshed for more than 2x refi cycles raises
     * a "refresh" violation (refresh suppression threatens data
     * retention even though no inter-command constraint is broken).
     */
    void expectRefresh(uint64_t refi) { expectedRefi_ = refi; }

    /** Shadow state + violation history (config/rule table excluded). */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

  private:
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar);

    /** Sentinel for "no open row" (independent of Bank's). */
    static constexpr unsigned kNoRow = ~0u;

    struct BankShadow
    {
        unsigned openRow = kNoRow;
        Cycle lastAct = kNoCycle;      ///< issue cycle of last ACT
        Cycle lastRdCas = kNoCycle;    ///< last column-read to this bank
        Cycle lastWrCas = kNoCycle;    ///< last column-write to this bank
        Cycle preReadyAt = 0;          ///< cycle bank became precharged

        template <class Self, class Ar>
        static void io(Self &self, Ar &ar)
        {
            ar.io(self.openRow, self.lastAct, self.lastRdCas,
                  self.lastWrCas, self.preReadyAt);
        }
    };

    struct RankShadow
    {
        std::deque<Cycle> actHistory;  ///< recent ACTs for tRRD/tFAW
        Cycle lastRdCas = kNoCycle;
        Cycle lastWrCas = kNoCycle;
        Cycle refreshEnd = 0;
        Cycle lastRefSeen = 0;         ///< for the retention audit
        bool poweredDown = false;
        Cycle pdEnteredAt = 0;
        Cycle pdExitReadyAt = 0;       ///< tXP horizon after PDX

        template <class Self, class Ar>
        static void io(Self &self, Ar &ar)
        {
            ar.io(self.actHistory, self.lastRdCas, self.lastWrCas,
                  self.refreshEnd, self.lastRefSeen, self.poweredDown,
                  self.pdEnteredAt, self.pdExitReadyAt);
        }
    };

    void fail(Cycle t, const std::string &rule, const std::string &detail);
    void require(bool ok, Cycle t, RuleId rule, const char *detail);

    /** require() with a computed message: `detail()` builds it, and
     *  runs only when the rule fails (a passing check formats
     *  nothing). */
    template <std::invocable Detail>
    void
    require(bool ok, Cycle t, RuleId rule, Detail &&detail)
    {
        if (!ok)
            fail(t, ruleName(rule), detail());
    }

    /** Shared-table minimum gap, as a Cycle for horizon arithmetic. */
    Cycle need(RuleId id) const
    {
        return static_cast<Cycle>(rules_.gap(id));
    }

    void checkAct(const Command &cmd, Cycle t);
    void checkColumn(const Command &cmd, Cycle t);
    void checkPre(const Command &cmd, Cycle t);
    void checkRef(const Command &cmd, Cycle t);
    void checkPd(const Command &cmd, Cycle t);

    BankShadow &bankOf(const Command &cmd);
    RankShadow &rankOf(const Command &cmd);

    TimingParams tp_; ///< non-const so drifted params can be swapped in
    TimingRuleTable rules_; ///< shared rule table resolved against tp_
    unsigned nbanks_ = 0;
    std::vector<BankShadow> banks_;  ///< [rank * nbanks + bank]
    std::vector<RankShadow> ranks_;

    Cycle lastCmdCycle_ = kNoCycle;
    Cycle lastDataStart_ = kNoCycle;
    Cycle lastDataEnd_ = 0;
    unsigned lastDataRank_ = ~0u;

    bool strict_ = true;
    bool currentOk_ = true;
    uint64_t observed_ = 0;
    uint64_t expectedRefi_ = 0; ///< 0 = retention audit disarmed
    std::vector<Violation> violations_;
    size_t violationCap_ = 128;
    uint64_t violationTotal_ = 0;
    std::map<std::string, uint64_t> violationsByRule_;
};

} // namespace memsec::dram

#endif // MEMSEC_DRAM_TIMING_CHECKER_HH
