/**
 * @file
 * Single-channel DRAM device model.
 *
 * DramSystem is the authority on DRAM state for one channel: it owns
 * the ranks/banks, the shared buses, and the independent
 * TimingChecker. Schedulers ask canIssue() and then issue(); issue()
 * both updates the fast-path state and feeds the auditor, so an
 * inconsistent scheduler is caught immediately.
 */

#ifndef MEMSEC_DRAM_DRAM_SYSTEM_HH
#define MEMSEC_DRAM_DRAM_SYSTEM_HH

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "dram/channel.hh"
#include "dram/command.hh"
#include "dram/rank.hh"
#include "dram/timing.hh"
#include "dram/timing_checker.hh"
#include "fault/command_log.hh"
#include "sim/types.hh"

namespace memsec {
class RunReport;
class Serializer;
class Deserializer;
namespace fault {
class FaultInjector;
} // namespace fault
} // namespace memsec

namespace memsec::dram {

/** Result of a column command: when its data burst completes. */
struct IssueResult
{
    Cycle dataStart = 0; ///< first cycle of the data burst (column cmds)
    Cycle dataEnd = 0;   ///< one past the last burst cycle
};

/** One memory channel's worth of DRAM devices. */
class DramSystem
{
  public:
    DramSystem(const TimingParams &tp, const Geometry &geo);
    ~DramSystem();

    // The registered crash handler captures `this`; moving or copying
    // the object would leave the handler dangling.
    DramSystem(const DramSystem &) = delete;
    DramSystem &operator=(const DramSystem &) = delete;

    /**
     * True if `cmd` may legally issue at cycle `now`; optionally
     * reports the blocking rule. Exactly
     * `buses().cmdBusFree(now) && now >= earliestIssue(cmd)`.
     */
    bool canIssue(const Command &cmd, Cycle now,
                  std::string *why = nullptr) const;

    /**
     * First cycle at which `cmd` is legal if no other command issues
     * meanwhile, command bus aside; kNoCycle if it cannot become
     * legal without another command (row state, power-down). Every
     * window is a lower bound, so `cmd` stays legal at every later
     * cycle with a free command bus.
     */
    Cycle earliestIssue(const Command &cmd) const;

    /**
     * Legality by scope, for the bank commands (ACT, PRE and the
     * column commands): once the row state allows `cmd` (ACT: bank
     * closed; PRE: bank open; a column command: its row open),
     * earliestIssue(cmd) is max(bankFloor(...), rankFloor(...)).
     * legalFrom() is built from the same two, so this is the one
     * encoding of the timing windows.
     *
     * The bank floor is the bank's own window (Bank::floor()):
     * nextAct, nextRead, nextWrite or nextPre.
     */
    Cycle bankFloor(CmdType type, unsigned rank, unsigned bank) const
    {
        return ranks_.at(rank).bank(bank).floor(type);
    }

    /**
     * The rank floor: the refresh end, or kNoCycle while the rank is
     * powered down; for ACT also tRRD/tFAW, and for a column command
     * also the rank's CAS turnaround and the data bus (its tRTRS
     * start less the CAS or CWD latency). PRE has no rank window
     * beyond the refresh.
     */
    Cycle rankFloor(CmdType type, unsigned rank) const
    {
        Cycle floor = 0;
        const auto atLeast = [&floor](Cycle bound, const char *) {
            floor = std::max(floor, bound);
        };
        if (!rankAwake(ranks_.at(rank), atLeast))
            return kNoCycle;
        rankWindows(type, rank, atLeast);
        return floor;
    }

    /**
     * Issue a command at cycle `now`. Panics if illegal. For column
     * commands the returned IssueResult carries the data-burst window;
     * for others it is zero.
     */
    IssueResult issue(const Command &cmd, Cycle now);

    /**
     * Account cycle `now` in the energy books, in the state left by
     * the commands issued at `now`. O(1): it only advances the energy
     * clock; a rank's residency is charged when a command changes its
     * state or when its books are read.
     */
    void tick(Cycle now);

    /** tick() for every cycle of a quiet span [from, to) at once. A
     *  span that does not start at the energy clock (a gap, or the
     *  first after a restore) re-anchors every rank at `from`. */
    void fastForwardEnergy(Cycle from, Cycle to);

    const Rank &rank(unsigned r) const { return ranks_.at(r); }

    /** Rank `r`'s energy books, residency charged through every
     *  cycle accounted so far. */
    RankEnergyCounters energy(unsigned r) const;

    /** Move up to `cycles` of rank `r`'s precharge-standby residency
     *  to power-down (see Rank::creditPowerDown). */
    void creditPowerDown(unsigned r, uint64_t cycles);
    unsigned numRanks() const { return static_cast<unsigned>(ranks_.size()); }

    ChannelBuses &buses() { return buses_; }
    const ChannelBuses &buses() const { return buses_; }

    const TimingParams &timing() const { return tp_; }
    const Geometry &geometry() const { return geo_; }
    TimingChecker &checker() { return checker_; }
    const TimingChecker &checker() const { return checker_; }

    /** Total commands issued. */
    uint64_t commandsIssued() const { return commandsIssued_; }
    /** One past the cycle of the last command issued (0 before the
     *  first): the watchdog's progress probe. Derived, never
     *  serialized. */
    Cycle progressCycle() const { return progressCycle_; }

    /**
     * Legality versions, for callers caching floors or row state:
     * rank `r`'s banks, its row state and its floors can change only
     * when rankVersion(r) does, and a column command's rank floor
     * also when dataBusVersion() does. Derived, never serialized; a
     * restore advances them all.
     */
    uint64_t rankVersion(unsigned r) const { return rankVersion_[r]; }
    uint64_t dataBusVersion() const { return busVersion_; }
    /** Moves whenever any rankVersion() or dataBusVersion() does. */
    uint64_t legalityVersion() const { return legalityVersion_; }

    /**
     * Attach a fault injector: the checker observes the injector's
     * mutated audit stream instead of the real command stream. Puts
     * this system and the checker into record-and-continue mode (an
     * injection campaign must survive its own faults); for
     * timing-drift kinds the checker is rebuilt against the drifted
     * parameter set.
     */
    void attachFaultInjector(fault::FaultInjector *inj);

    /** Route recoverable faults here instead of panicking. */
    void setReport(RunReport *report) { report_ = report; }

    /**
     * Strict (default): an illegal issue() is a panic. Non-strict: it
     * is recorded (to the attached report, if any), the command is
     * still audited, and the fast-path state is left untouched.
     */
    void setStrict(bool strict);

    /** Illegal issues survived in non-strict mode. */
    uint64_t illegalIssues() const { return illegalIssues_; }

    /** Last-K-commands ring dumped as a crash snapshot on panic. */
    const fault::CommandLog &commandLog() const { return cmdLog_; }

    /**
     * Write the crash-time command-log dump to a file
     * `<dir>/cmdlog-<tag>-<N>.log` instead of stderr. N comes from a
     * process-wide attempt counter, so parallel campaign workers — or
     * repeated attempts at the same config — can never overwrite each
     * other's post-mortems even when they share a tag. The campaign
     * harness passes the run's config fingerprint as the tag.
     */
    void setCrashDumpDir(const std::string &dir, const std::string &tag);

    /** Device + bus + auditor state (timing params are config). */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

  private:
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar);

    /** Lower-bound accumulator behind canIssue()/earliestIssue(). */
    struct LegalWindow;

    /** The legality rules, written once: folds every window `cmd`
     *  must clear into `w` and returns its earliest legal cycle. For
     *  a bank command that is the row-state predicate, then the bank
     *  floor, then the rank floor. */
    Cycle legalFrom(const Command &cmd, LegalWindow &w) const;

    /**
     * The rank floor, in rule order, as calls `atLeast(bound, rule)`.
     * rankAwake() passes the refresh window every command but PDX
     * clears first and returns false while the rank is powered down;
     * rankWindows() passes the rest for bank command `type` (legalFrom
     * checks the row state and the bank floor in between).
     */
    template <class AtLeast>
    static bool rankAwake(const Rank &rk, AtLeast &&atLeast)
    {
        atLeast(rk.refreshEndsAt(), "rank refreshing");
        return !rk.isPoweredDown();
    }

    template <class AtLeast>
    void rankWindows(CmdType type, unsigned r, AtLeast &&atLeast) const
    {
        const Rank &rk = ranks_[r];
        switch (type) {
          case CmdType::Act:
            atLeast(rk.nextActRankLimit(), "rank tRRD/tFAW");
            return;
          case CmdType::Rd:
          case CmdType::RdA:
            atLeast(rk.nextRead(), "rank CAS turnaround (read)");
            atLeast(dataBusFloor(r, tp_.cas), "data bus / tRTRS");
            return;
          case CmdType::Wr:
          case CmdType::WrA:
            atLeast(rk.nextWrite(), "rank CAS turnaround (write)");
            atLeast(dataBusFloor(r, tp_.cwd), "data bus / tRTRS");
            return;
          default:
            return;
        }
    }

    /** First cycle a column command to rank `r` whose burst starts
     *  `latency` after it clears the data bus and tRTRS. */
    Cycle dataBusFloor(unsigned r, Cycle latency) const
    {
        const Cycle busFrom = buses_.earliestDataStart(r);
        return busFrom > latency ? busFrom - latency : 0;
    }

    /** Charge every rank through the energy clock, then restart the
     *  books (and the clock) at `at`: cycles in between never count. */
    void reanchorEnergy(Cycle at);

    TimingParams tp_;
    Geometry geo_;
    std::vector<Rank> ranks_;
    ChannelBuses buses_;
    TimingChecker checker_;
    uint64_t commandsIssued_ = 0;
    Cycle progressCycle_ = 0;
    std::vector<uint64_t> rankVersion_;
    uint64_t busVersion_ = 0;
    uint64_t legalityVersion_ = 0;
    /** One past the last cycle accounted by tick()/fastForwardEnergy()
     *  (the energy clock). Never serialized: a restore resets it. */
    Cycle energyClock_ = 0;

    fault::FaultInjector *injector_ = nullptr;
    RunReport *report_ = nullptr;
    bool strict_ = true;
    uint64_t illegalIssues_ = 0;
    fault::CommandLog cmdLog_{32};
    int crashHandlerId_ = -1;
    std::string crashDir_; ///< empty = dump to stderr
    std::string crashTag_;
};

} // namespace memsec::dram

#endif // MEMSEC_DRAM_DRAM_SYSTEM_HH
