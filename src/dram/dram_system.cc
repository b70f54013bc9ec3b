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

void
DramSystem::saveState(Serializer &s) const
{
    s.section("dram");
    s.putU64(ranks_.size());
    for (const Rank &rk : ranks_)
        rk.saveState(s);
    buses_.saveState(s);
    checker_.saveState(s);
    s.putU64(commandsIssued_);
    s.putU64(illegalIssues_);
    cmdLog_.saveState(s);
}

void
DramSystem::restoreState(Deserializer &d)
{
    d.section("dram");
    if (d.getU64() != ranks_.size())
        d.fail("rank count mismatch");
    for (Rank &rk : ranks_)
        rk.restoreState(d);
    buses_.restoreState(d);
    checker_.restoreState(d);
    commandsIssued_ = d.getU64();
    illegalIssues_ = d.getU64();
    cmdLog_.restoreState(d);
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

bool
DramSystem::canIssue(const Command &cmd, Cycle now, std::string *why) const
{
    auto blocked = [&](const char *reason) {
        if (why)
            *why = reason;
        return false;
    };

    if (!buses_.cmdBusFree(now))
        return blocked("command bus busy");

    fatal_if(cmd.rank >= ranks_.size(), "rank {} out of range", cmd.rank);
    const Rank &rk = ranks_[cmd.rank];
    if (cmd.type != CmdType::PdExit) {
        if (now < rk.refreshEndsAt())
            return blocked("rank refreshing");
        if (rk.isPoweredDown())
            return blocked("rank powered down");
    }

    switch (cmd.type) {
      case CmdType::Act: {
        const Bank &bk = rk.bank(cmd.bank);
        if (bk.isOpen())
            return blocked("bank has open row");
        if (now < bk.nextAct())
            return blocked("bank tRC/tRP");
        if (now < rk.nextActRankLimit())
            return blocked("rank tRRD/tFAW");
        return true;
      }
      case CmdType::Rd:
      case CmdType::RdA:
      case CmdType::Wr:
      case CmdType::WrA: {
        const Bank &bk = rk.bank(cmd.bank);
        const bool rd = isRead(cmd.type);
        if (!bk.isOpen() || bk.openRow() != cmd.row)
            return blocked("row not open");
        if (rd && now < bk.nextRead())
            return blocked("bank tRCD (read)");
        if (!rd && now < bk.nextWrite())
            return blocked("bank tRCD (write)");
        if (rd && now < rk.nextRead())
            return blocked("rank CAS turnaround (read)");
        if (!rd && now < rk.nextWrite())
            return blocked("rank CAS turnaround (write)");
        const Cycle dataStart = now + (rd ? tp_.cas : tp_.cwd);
        if (!buses_.dataBusFree(dataStart, cmd.rank))
            return blocked("data bus / tRTRS");
        return true;
      }
      case CmdType::Pre: {
        const Bank &bk = rk.bank(cmd.bank);
        if (!bk.isOpen())
            return blocked("bank already closed");
        if (now < bk.nextPre())
            return blocked("bank tRAS/tRTP/tWR");
        return true;
      }
      case CmdType::Ref:
        if (!rk.allBanksIdleBy(now))
            return blocked("banks not precharged for REF");
        return true;
      case CmdType::PdEnter:
        if (rk.anyBankOpen())
            return blocked("open rows prevent power-down");
        if (now < rk.pdExitReadyAt())
            return blocked("tXP after power-down exit");
        return true;
      case CmdType::PdExit:
        if (!rk.isPoweredDown())
            return blocked("rank not powered down");
        if (now < rk.earliestPdExit())
            return blocked("tCKE residency");
        return true;
    }
    return blocked("unknown command");
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

    Rank &rk = ranks_[cmd.rank];
    IssueResult res;

    switch (cmd.type) {
      case CmdType::Act:
        rk.bank(cmd.bank).doActivate(now, cmd.row, tp_);
        rk.recordActivate(now, cmd.suppressed);
        break;
      case CmdType::Rd:
      case CmdType::RdA: {
        rk.bank(cmd.bank).doRead(now, isAutoPrecharge(cmd.type), tp_);
        rk.recordRead(now);
        res.dataStart = now + tp_.cas;
        res.dataEnd = res.dataStart + tp_.burst;
        buses_.reserveData(res.dataStart, cmd.rank);
        if (cmd.suppressed)
            ++rk.energy().suppressedCas;
        else
            ++rk.energy().reads;
        break;
      }
      case CmdType::Wr:
      case CmdType::WrA: {
        rk.bank(cmd.bank).doWrite(now, isAutoPrecharge(cmd.type), tp_);
        rk.recordWrite(now);
        res.dataStart = now + tp_.cwd;
        res.dataEnd = res.dataStart + tp_.burst;
        buses_.reserveData(res.dataStart, cmd.rank);
        if (cmd.suppressed)
            ++rk.energy().suppressedCas;
        else
            ++rk.energy().writes;
        break;
      }
      case CmdType::Pre:
        rk.bank(cmd.bank).doPrecharge(now, tp_);
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
DramSystem::tick(Cycle now)
{
    for (auto &rk : ranks_)
        rk.tickEnergy(now);
}

void
DramSystem::fastForwardEnergy(Cycle from, Cycle to)
{
    for (auto &rk : ranks_)
        rk.accountEnergySpan(from, to);
}

} // namespace memsec::dram
