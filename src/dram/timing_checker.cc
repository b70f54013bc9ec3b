#include "dram/timing_checker.hh"

#include <algorithm>
#include <sstream>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::dram {

template <class Self, class Ar>
void
TimingChecker::io(Self &self, Ar &ar)
{
    ar.section("checker");
    ar.sized(self.banks_, "bank shadow count mismatch");
    ar.sized(self.ranks_, "rank shadow count mismatch");
    ar.io(self.lastCmdCycle_, self.lastDataStart_, self.lastDataEnd_,
          self.lastDataRank_, self.currentOk_, self.observed_,
          self.violations_, self.violationTotal_, self.violationsByRule_);
}

void
TimingChecker::saveState(Serializer &s) const
{
    io(*this, s);
}

void
TimingChecker::restoreState(Deserializer &d)
{
    io(*this, d);
}

TimingChecker::TimingChecker(const TimingParams &tp, unsigned ranks,
                             unsigned banks)
    : tp_(tp), rules_(tp), nbanks_(banks),
      banks_(static_cast<size_t>(ranks) * banks), ranks_(ranks)
{
}

TimingChecker::BankShadow &
TimingChecker::bankOf(const Command &cmd)
{
    return banks_.at(static_cast<size_t>(cmd.rank) * nbanks_ + cmd.bank);
}

TimingChecker::RankShadow &
TimingChecker::rankOf(const Command &cmd)
{
    return ranks_.at(cmd.rank);
}

void
TimingChecker::fail(Cycle t, const std::string &rule,
                    const std::string &detail)
{
    currentOk_ = false;
    if (strict_)
        panic("timing violation [{}] at cycle {}: {}", rule, t, detail);
    ++violationTotal_;
    ++violationsByRule_[rule];
    if (violations_.size() < violationCap_)
        violations_.push_back({t, rule, detail});
}

void
TimingChecker::require(bool ok, Cycle t, RuleId rule, const char *detail)
{
    if (!ok)
        fail(t, ruleName(rule), detail);
}

bool
TimingChecker::observe(const Command &cmd, Cycle t)
{
    ++observed_;
    currentOk_ = true;

    // Shared command bus: exactly one command per cycle, time monotone.
    require(lastCmdCycle_ == kNoCycle || t > lastCmdCycle_, t,
            RuleId::CmdBus, [&] {
                return "command at cycle " + std::to_string(t) +
                       " but bus last used at " +
                       std::to_string(lastCmdCycle_);
            });
    lastCmdCycle_ = t;

    // No commands to a refreshing or powered-down rank.
    RankShadow &rk = rankOf(cmd);
    if (cmd.type != CmdType::PdExit) {
        require(t >= rk.refreshEnd || cmd.type == CmdType::Ref, t,
                RuleId::Rfc, "command to rank during refresh");
        require(!rk.poweredDown, t, RuleId::PowerDown, [&] {
            return std::string(cmdName(cmd.type)) + " to powered-down rank";
        });
    }
    require(t >= rk.pdExitReadyAt || cmd.type == CmdType::PdExit, t,
            RuleId::Xp, "command before power-down exit latency elapsed");

    // Retention audit: a rank must keep seeing refreshes. Armed only
    // via expectRefresh() — during fault campaigns that suppress REFs.
    if (expectedRefi_ > 0) {
        if (cmd.type == CmdType::Ref) {
            rk.lastRefSeen = t;
        } else if (t > rk.lastRefSeen + 2 * expectedRefi_) {
            fail(t, ruleName(RuleId::Refresh),
                 "rank " + std::to_string(cmd.rank) +
                     " not refreshed since cycle " +
                     std::to_string(rk.lastRefSeen) + " (2x tREFI elapsed)");
            rk.lastRefSeen = t; // one violation per lapse, not per command
        }
    }

    switch (cmd.type) {
      case CmdType::Act:
        checkAct(cmd, t);
        break;
      case CmdType::Rd:
      case CmdType::RdA:
      case CmdType::Wr:
      case CmdType::WrA:
        checkColumn(cmd, t);
        break;
      case CmdType::Pre:
        checkPre(cmd, t);
        break;
      case CmdType::Ref:
        checkRef(cmd, t);
        break;
      case CmdType::PdEnter:
      case CmdType::PdExit:
        checkPd(cmd, t);
        break;
    }
    return currentOk_;
}

void
TimingChecker::checkAct(const Command &cmd, Cycle t)
{
    BankShadow &bk = bankOf(cmd);
    RankShadow &rk = rankOf(cmd);

    require(bk.openRow == kNoRow, t, RuleId::RowState,
            "ACT to bank with open row");
    if (bk.lastAct != kNoCycle) {
        require(t >= bk.lastAct + need(RuleId::Rc), t, RuleId::Rc, [&] {
            return "ACT-to-ACT gap " + std::to_string(t - bk.lastAct) +
                   " < tRC";
        });
    }
    require(t >= bk.preReadyAt, t, RuleId::Rp, [&] {
        return "ACT " + std::to_string(t) + " before precharge completes at " +
               std::to_string(bk.preReadyAt);
    });
    if (!rk.actHistory.empty()) {
        require(t >= rk.actHistory.back() + need(RuleId::Rrd), t,
                RuleId::Rrd, [&] {
                    return "rank ACT-to-ACT gap " +
                           std::to_string(t - rk.actHistory.back()) +
                           " < tRRD";
                });
    }
    if (rk.actHistory.size() >= 4) {
        const Cycle fourth = rk.actHistory[rk.actHistory.size() - 4];
        require(t >= fourth + need(RuleId::Faw), t, RuleId::Faw, [&] {
            return "fifth ACT within tFAW window (" +
                   std::to_string(t - fourth) + " < " +
                   std::to_string(need(RuleId::Faw)) + ")";
        });
    }

    bk.openRow = cmd.row;
    bk.lastAct = t;
    bk.lastRdCas = kNoCycle;
    bk.lastWrCas = kNoCycle;
    rk.actHistory.push_back(t);
    while (rk.actHistory.size() > 4)
        rk.actHistory.pop_front();
}

void
TimingChecker::checkColumn(const Command &cmd, Cycle t)
{
    BankShadow &bk = bankOf(cmd);
    RankShadow &rk = rankOf(cmd);
    const bool rd = isRead(cmd.type);

    require(bk.openRow != kNoRow, t, RuleId::RowState,
            "column command to closed bank");
    require(bk.openRow == cmd.row, t, RuleId::RowState, [&] {
        return "column command to row " + std::to_string(cmd.row) +
               " but open row is " + std::to_string(bk.openRow);
    });
    require(bk.lastAct == kNoCycle || t >= bk.lastAct + need(RuleId::Rcd),
            t, RuleId::Rcd, [&] {
                return "CAS " + std::to_string(t - bk.lastAct) +
                       " after ACT < tRCD";
            });

    // Same-rank CAS-to-CAS turnaround.
    if (rk.lastRdCas != kNoCycle) {
        if (rd) {
            require(t >= rk.lastRdCas + need(RuleId::Ccd), t, RuleId::Ccd,
                    "RD-to-RD same rank < tCCD");
        } else {
            require(t >= rk.lastRdCas + need(RuleId::Rd2Wr), t,
                    RuleId::Rd2Wr, [&] {
                        return "RD-to-WR same rank gap " +
                               std::to_string(t - rk.lastRdCas) + " < " +
                               std::to_string(need(RuleId::Rd2Wr));
                    });
        }
    }
    if (rk.lastWrCas != kNoCycle) {
        if (rd) {
            require(t >= rk.lastWrCas + need(RuleId::Wr2Rd), t,
                    RuleId::Wr2Rd, [&] {
                        return "WR-to-RD same rank gap " +
                               std::to_string(t - rk.lastWrCas) + " < " +
                               std::to_string(need(RuleId::Wr2Rd));
                    });
        } else {
            require(t >= rk.lastWrCas + need(RuleId::Ccd), t, RuleId::Ccd,
                    "WR-to-WR same rank < tCCD");
        }
    }

    // Data-bus occupancy and rank-to-rank switching.
    const Cycle dataStart = t + (rd ? tp_.cas : tp_.cwd);
    if (lastDataStart_ != kNoCycle) {
        require(dataStart >= lastDataEnd_, t, RuleId::DataBus, [&] {
            return "burst at " + std::to_string(dataStart) +
                   " overlaps burst ending " + std::to_string(lastDataEnd_);
        });
        if (cmd.rank != lastDataRank_) {
            require(dataStart >= lastDataEnd_ + need(RuleId::Rtrs), t,
                    RuleId::Rtrs, [&] {
                        return "rank switch gap " +
                               std::to_string(dataStart - lastDataEnd_) +
                               " < tRTRS";
                    });
        }
    }
    lastDataStart_ = dataStart;
    lastDataEnd_ = dataStart + tp_.burst;
    lastDataRank_ = cmd.rank;

    if (rd) {
        bk.lastRdCas = t;
        rk.lastRdCas = t;
    } else {
        bk.lastWrCas = t;
        rk.lastWrCas = t;
    }

    if (isAutoPrecharge(cmd.type)) {
        // Auto-precharge begins after tRTP (read) or after the burst
        // plus tWR (write), but the device internally delays it until
        // tRAS is satisfied (JEDEC auto-precharge semantics); the bank
        // is ACT-ready tRP after the precharge actually starts.
        Cycle preStart =
            rd ? t + tp_.rtp : t + tp_.cwd + tp_.burst + tp_.wr;
        if (bk.lastAct != kNoCycle)
            preStart = std::max(preStart, bk.lastAct + tp_.ras);
        bk.openRow = kNoRow;
        bk.preReadyAt = preStart + need(RuleId::Rp);
    }
}

void
TimingChecker::checkPre(const Command &cmd, Cycle t)
{
    BankShadow &bk = bankOf(cmd);
    require(bk.openRow != kNoRow, t, RuleId::RowState,
            "PRE to closed bank");
    require(bk.lastAct == kNoCycle || t >= bk.lastAct + need(RuleId::Ras),
            t, RuleId::Ras, [&] {
                return "PRE " + std::to_string(t - bk.lastAct) +
                       " after ACT < tRAS";
            });
    if (bk.lastRdCas != kNoCycle) {
        require(t >= bk.lastRdCas + need(RuleId::Rtp), t, RuleId::Rtp,
                "PRE too soon after column read");
    }
    if (bk.lastWrCas != kNoCycle) {
        require(t >= bk.lastWrCas + tp_.cwd + tp_.burst +
                         need(RuleId::Wr),
                t, RuleId::Wr, "PRE too soon after column write");
    }
    bk.openRow = kNoRow;
    bk.preReadyAt = t + need(RuleId::Rp);
}

void
TimingChecker::checkRef(const Command &cmd, Cycle t)
{
    RankShadow &rk = rankOf(cmd);
    for (unsigned b = 0; b < nbanks_; ++b) {
        const BankShadow &bk =
            banks_[static_cast<size_t>(cmd.rank) * nbanks_ + b];
        require(bk.openRow == kNoRow, t, RuleId::RowState, [&] {
            return "REF with open row in bank " + std::to_string(b);
        });
        require(t >= bk.preReadyAt, t, RuleId::Rp, [&] {
            return "REF before precharge completes in bank " +
                   std::to_string(b);
        });
    }
    require(t >= rk.refreshEnd, t, RuleId::Rfc, "REF during REF");
    rk.refreshEnd = t + need(RuleId::Rfc);
}

void
TimingChecker::checkPd(const Command &cmd, Cycle t)
{
    RankShadow &rk = rankOf(cmd);
    if (cmd.type == CmdType::PdEnter) {
        require(!rk.poweredDown, t, RuleId::PowerDown,
                "PDE while powered down");
        require(t >= rk.refreshEnd, t, RuleId::PowerDown,
                "PDE during refresh");
        for (unsigned b = 0; b < nbanks_; ++b) {
            const BankShadow &bk =
                banks_[static_cast<size_t>(cmd.rank) * nbanks_ + b];
            require(bk.openRow == kNoRow, t, RuleId::PowerDown,
                    "precharge power-down with open row");
        }
        rk.poweredDown = true;
        rk.pdEnteredAt = t;
    } else {
        require(rk.poweredDown, t, RuleId::PowerDown,
                "PDX while not powered down");
        require(t >= rk.pdEnteredAt + need(RuleId::Cke), t, RuleId::Cke,
                "PDX before minimum power-down residency");
        rk.poweredDown = false;
        rk.pdExitReadyAt = t + need(RuleId::Xp);
    }
}

} // namespace memsec::dram
