#include "dram/dram_system.hh"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>

#include "fault/fault_injector.hh"
#include "util/logging.hh"
#include "util/serialize.hh"
#include "util/sim_error.hh"

namespace memsec::dram {

namespace {

/**
 * Process-wide crash-dump attempt counter: every dump gets a unique
 * suffix no matter which worker thread (or which retry of the same
 * fingerprint) produced it.
 */
std::atomic<uint64_t> &
crashDumpSeq()
{
    static std::atomic<uint64_t> seq{0};
    return seq;
}

} // namespace

DramSystem::DramSystem(const TimingParams &tp, const Geometry &geo)
    : tp_(tp), geo_(geo), buses_(tp_),
      checker_(tp_, geo.ranksPerChannel, geo.banksPerRank)
{
    tp_.validate();
    geo_.validate();
    ranks_.reserve(geo.ranksPerChannel);
    for (unsigned r = 0; r < geo.ranksPerChannel; ++r)
        ranks_.emplace_back(geo.banksPerRank, tp_);
    rankVersion_.assign(geo.ranksPerChannel, 0);
    crashHandlerId_ = addCrashHandler([this] {
        // Straight to stderr: this runs on the panic path, where the
        // quiet flag must not eat the post-mortem.
        const std::string dump = cmdLog_.snapshot();
        if (crashDir_.empty()) {
            std::cerr << dump;
            return;
        }
        const uint64_t n = crashDumpSeq()++;
        const std::string path = crashDir_ + "/cmdlog-" + crashTag_ +
                                 "-" + std::to_string(n) + ".log";
        std::ofstream out(path, std::ios::trunc);
        if (!out) {
            std::cerr << dump;
            return;
        }
        out << dump;
        std::cerr << "crash command log written to " << path << "\n";
    });
}

void
DramSystem::setCrashDumpDir(const std::string &dir, const std::string &tag)
{
    crashDir_ = dir;
    crashTag_ = tag;
}

template <class Self, class Ar>
void
DramSystem::io(Self &self, Ar &ar)
{
    ar.section("dram");
    ar.sized(self.ranks_, "rank count mismatch", [&](auto &rk) {
        Rank::io(rk, ar, self.energyClock_);
    });
    ar.io(self.buses_, self.checker_, self.commandsIssued_,
          self.illegalIssues_, self.cmdLog_);
    if constexpr (Ar::loading) {
        // The ranks restart residency at cycle 0; the first cycle
        // accounted after the restore re-anchors them all there.
        self.energyClock_ = 0;
        for (uint64_t &v : self.rankVersion_)
            ++v;
        ++self.busVersion_;
        ++self.legalityVersion_;
    }
}

void
DramSystem::saveState(Serializer &s) const
{
    io(*this, s);
}

void
DramSystem::restoreState(Deserializer &d)
{
    io(*this, d);
}

DramSystem::~DramSystem()
{
    removeCrashHandler(crashHandlerId_);
}

void
DramSystem::setStrict(bool strict)
{
    strict_ = strict;
    checker_.setStrict(strict);
}

void
DramSystem::attachFaultInjector(fault::FaultInjector *inj)
{
    injector_ = inj;
    if (!inj)
        return;
    setStrict(false);
    if (inj->spec().kind == fault::FaultKind::TimingDrift) {
        // The device's true timing has drifted; audit against it while
        // the fast path keeps scheduling with the nominal parameters.
        checker_ = TimingChecker(inj->driftTimings(tp_),
                                 geo_.ranksPerChannel, geo_.banksPerRank);
        checker_.setStrict(false);
    }
}

/**
 * Folds the windows one command must clear into its earliest legal
 * cycle. For canIssue()'s report it also remembers the first window,
 * in rule order, still closed at the probe cycle.
 */
struct DramSystem::LegalWindow
{
    Cycle probe = kNoCycle;
    Cycle from = 0;
    const char *why = nullptr;

    void
    atLeast(Cycle bound, const char *reason)
    {
        from = std::max(from, bound);
        if (!why && bound > probe)
            why = reason;
    }

    Cycle
    never(const char *reason)
    {
        if (!why)
            why = reason;
        return kNoCycle;
    }
};

namespace {

/** Why the row state rules out bank command `cmd`; null if it does
 *  not. */
const char *
rowStateBlocks(const Command &cmd, const Bank &bk)
{
    switch (cmd.type) {
      case CmdType::Act:
        return bk.isOpen() ? "bank has open row" : nullptr;
      case CmdType::Pre:
        return bk.isOpen() ? nullptr : "bank already closed";
      default:
        return bk.isOpen() && bk.openRow() == cmd.row ? nullptr
                                                      : "row not open";
    }
}

/** The rule a bank command's bank floor reports. */
const char *
bankRule(CmdType type)
{
    switch (type) {
      case CmdType::Act:
        return "bank tRC/tRP";
      case CmdType::Rd:
      case CmdType::RdA:
        return "bank tRCD (read)";
      case CmdType::Wr:
      case CmdType::WrA:
        return "bank tRCD (write)";
      default:
        return "bank tRAS/tRTP/tWR";
    }
}

} // namespace

Cycle
DramSystem::legalFrom(const Command &cmd, LegalWindow &w) const
{
    fatal_if(cmd.rank >= ranks_.size(), "rank {} out of range", cmd.rank);
    const Rank &rk = ranks_[cmd.rank];
    const auto atLeast = [&w](Cycle bound, const char *rule) {
        w.atLeast(bound, rule);
    };
    if (cmd.type != CmdType::PdExit && !rankAwake(rk, atLeast))
        return w.never("rank powered down");

    switch (cmd.type) {
      case CmdType::Act:
      case CmdType::Pre:
      case CmdType::Rd:
      case CmdType::RdA:
      case CmdType::Wr:
      case CmdType::WrA: {
        const Bank &bk = rk.bank(cmd.bank);
        if (const char *blocked = rowStateBlocks(cmd, bk))
            return w.never(blocked);
        w.atLeast(bk.floor(cmd.type), bankRule(cmd.type));
        rankWindows(cmd.type, cmd.rank, atLeast);
        return w.from;
      }
      case CmdType::Ref:
        if (rk.anyBankOpen())
            return w.never("banks not precharged for REF");
        for (unsigned b = 0; b < rk.numBanks(); ++b)
            w.atLeast(rk.bank(b).nextAct(), "banks not precharged for REF");
        return w.from;
      case CmdType::PdEnter:
        if (rk.anyBankOpen())
            return w.never("open rows prevent power-down");
        w.atLeast(rk.pdExitReadyAt(), "tXP after power-down exit");
        return w.from;
      case CmdType::PdExit:
        if (!rk.isPoweredDown())
            return w.never("rank not powered down");
        w.atLeast(rk.earliestPdExit(), "tCKE residency");
        return w.from;
    }
    return w.never("unknown command");
}

bool
DramSystem::canIssue(const Command &cmd, Cycle now, std::string *why) const
{
    const char *reason = "command bus busy";
    if (buses_.cmdBusFree(now)) {
        LegalWindow w{now};
        if (now >= legalFrom(cmd, w))
            return true;
        reason = w.why;
    }
    if (why)
        *why = reason;
    return false;
}

Cycle
DramSystem::earliestIssue(const Command &cmd) const
{
    LegalWindow w;
    return legalFrom(cmd, w);
}

IssueResult
DramSystem::issue(const Command &cmd, Cycle now)
{
    std::string why;
    const bool legal = canIssue(cmd, now, &why);
    // Record before any panic so the crash snapshot includes the
    // command that killed the run.
    cmdLog_.record(cmd, now);
    panic_if(!legal && strict_, "illegal issue of {} at {}: {}",
             cmd.toString(), now, why);

    // Independent audit first, so a fast-path bug cannot mask a real
    // constraint violation. With an injector attached the checker
    // observes the mutated audit stream instead of the real command.
    if (injector_) {
        for (const auto &[acmd, at] : injector_->auditView(cmd, now))
            checker_.observe(acmd, at);
    } else {
        checker_.observe(cmd, now);
    }
    ++commandsIssued_;
    progressCycle_ = now + 1;

    if (!legal) {
        // Record-and-continue: don't apply an illegal transition to
        // the device state machine, but report a nominal burst window
        // so the owning request still completes.
        ++illegalIssues_;
        if (report_)
            report_->record(
                {now, "illegal-issue", cmd.toString() + ": " + why});
        IssueResult res;
        if (isColumn(cmd.type)) {
            res.dataStart = now + (isRead(cmd.type) ? tp_.cas : tp_.cwd);
            res.dataEnd = res.dataStart + tp_.burst;
        }
        return res;
    }

    buses_.useCmdBus(now);
    ++rankVersion_[cmd.rank];
    if (isColumn(cmd.type))
        ++busVersion_;
    ++legalityVersion_;

    // Charge the rank's residency, through the last accounted cycle,
    // in the state it is about to leave.
    Rank &rk = ranks_[cmd.rank];
    rk.chargeEnergy(energyClock_);
    IssueResult res;

    switch (cmd.type) {
      case CmdType::Act:
        rk.activate(cmd.bank, now, cmd.row, cmd.suppressed);
        break;
      case CmdType::Rd:
      case CmdType::RdA:
        rk.read(cmd.bank, now, isAutoPrecharge(cmd.type), cmd.suppressed);
        res.dataStart = now + tp_.cas;
        res.dataEnd = res.dataStart + tp_.burst;
        buses_.reserveData(res.dataStart, cmd.rank);
        break;
      case CmdType::Wr:
      case CmdType::WrA:
        rk.write(cmd.bank, now, isAutoPrecharge(cmd.type), cmd.suppressed);
        res.dataStart = now + tp_.cwd;
        res.dataEnd = res.dataStart + tp_.burst;
        buses_.reserveData(res.dataStart, cmd.rank);
        break;
      case CmdType::Pre:
        rk.precharge(cmd.bank, now);
        break;
      case CmdType::Ref:
        rk.startRefresh(now);
        break;
      case CmdType::PdEnter:
        rk.enterPowerDown(now);
        break;
      case CmdType::PdExit:
        rk.exitPowerDown(now);
        break;
    }
    return res;
}

void
DramSystem::reanchorEnergy(Cycle at)
{
    for (Rank &rk : ranks_) {
        rk.chargeEnergy(energyClock_);
        rk.anchorEnergy(at);
    }
    energyClock_ = at;
}

void
DramSystem::tick(Cycle now)
{
    fastForwardEnergy(now, now + 1);
}

void
DramSystem::fastForwardEnergy(Cycle from, Cycle to)
{
    // A span never accounted (a gap, or a restore) is skipped.
    if (from != energyClock_)
        reanchorEnergy(from);
    energyClock_ = to;
}

RankEnergyCounters
DramSystem::energy(unsigned r) const
{
    return ranks_.at(r).energy(energyClock_);
}

void
DramSystem::creditPowerDown(unsigned r, uint64_t cycles)
{
    Rank &rk = ranks_.at(r);
    rk.chargeEnergy(energyClock_);
    rk.creditPowerDown(cycles);
}

} // namespace memsec::dram
