#include "dram/rank.hh"

#include <algorithm>

#include "util/logging.hh"

namespace memsec::dram {

Rank::Rank(unsigned banks, const TimingParams &tp)
    : tp_(tp), banks_(banks)
{
}

Cycle
Rank::nextActRankLimit() const
{
    Cycle limit = nextActRrd_;
    if (actWindow_.size() >= 4)
        limit = std::max(limit, actWindow_.front() + tp_.faw);
    return limit;
}

void
Rank::recordActivate(Cycle t)
{
    panic_if(t < nextActRankLimit(),
             "rank ACT at {} violates tRRD/tFAW limit {}", t,
             nextActRankLimit());
    nextActRrd_ = t + tp_.rrd;
    actWindow_.push_back(t);
    while (actWindow_.size() > 4)
        actWindow_.pop_front();
}

void
Rank::recordRead(Cycle t)
{
    panic_if(t < nextRead_, "rank RD at {} before nextRead {}", t,
             nextRead_);
    nextRead_ = t + tp_.ccd;
    nextWrite_ = std::max(nextWrite_, t + tp_.rd2wr());
}

void
Rank::recordWrite(Cycle t)
{
    panic_if(t < nextWrite_, "rank WR at {} before nextWrite {}", t,
             nextWrite_);
    nextWrite_ = t + tp_.ccd;
    nextRead_ = std::max(nextRead_, t + tp_.wr2rd());
}

template <typename Op>
void
Rank::mutateBank(unsigned b, Op &&op)
{
    Bank &bk = banks_.at(b);
    const bool wasOpen = bk.isOpen();
    op(bk);
    openBanks_ = openBanks_ - wasOpen + bk.isOpen();
}

void
Rank::activate(unsigned b, Cycle t, unsigned row, bool suppressed)
{
    mutateBank(b, [&](Bank &bk) { bk.doActivate(t, row, tp_); });
    recordActivate(t);
    if (suppressed)
        ++energy_.suppressedActs;
    else
        ++energy_.activates;
}

void
Rank::read(unsigned b, Cycle t, bool autoPre, bool suppressed)
{
    mutateBank(b, [&](Bank &bk) { bk.doRead(t, autoPre, tp_); });
    recordRead(t);
    if (suppressed)
        ++energy_.suppressedCas;
    else
        ++energy_.reads;
}

void
Rank::write(unsigned b, Cycle t, bool autoPre, bool suppressed)
{
    mutateBank(b, [&](Bank &bk) { bk.doWrite(t, autoPre, tp_); });
    recordWrite(t);
    if (suppressed)
        ++energy_.suppressedCas;
    else
        ++energy_.writes;
}

void
Rank::precharge(unsigned b, Cycle t)
{
    mutateBank(b, [&](Bank &bk) { bk.doPrecharge(t, tp_); });
}

void
Rank::startRefresh(Cycle t)
{
    panic_if(anyBankOpen(), "REF with open rows");
    panic_if(poweredDown_, "REF while powered down");
    refreshEnd_ = t + tp_.rfc;
    for (auto &b : banks_)
        b.blockUntil(refreshEnd_);
    nextRead_ = std::max(nextRead_, refreshEnd_);
    nextWrite_ = std::max(nextWrite_, refreshEnd_);
    nextActRrd_ = std::max(nextActRrd_, refreshEnd_);
    ++energy_.refreshes;
}

void
Rank::enterPowerDown(Cycle t)
{
    panic_if(anyBankOpen(), "precharge power-down with open rows");
    panic_if(poweredDown_, "PDE while already powered down");
    panic_if(t < refreshEnd_, "PDE during refresh");
    panic_if(t < pdExitReadyAt_, "PDE before tXP after the last exit");
    poweredDown_ = true;
    pdEnteredAt_ = t;
}

void
Rank::exitPowerDown(Cycle t)
{
    panic_if(!poweredDown_, "PDX while not powered down");
    panic_if(t < earliestPdExit(),
             "PDX at {} before minimum residency end {}", t,
             earliestPdExit());
    poweredDown_ = false;
    pdExitReadyAt_ = t + tp_.xp;
    const Cycle ready = t + tp_.xp;
    for (auto &b : banks_)
        b.blockUntil(ready);
    nextRead_ = std::max(nextRead_, ready);
    nextWrite_ = std::max(nextWrite_, ready);
    nextActRrd_ = std::max(nextActRrd_, ready);
}

PowerState
Rank::powerState(Cycle now) const
{
    if (poweredDown_)
        return PowerState::PowerDown;
    if (now < refreshEnd_)
        return PowerState::Refreshing;
    return anyBankOpen() ? PowerState::ActiveStandby
                         : PowerState::PrechargeStandby;
}

void
Rank::accountEnergySpan(RankEnergyCounters &e, Cycle from, Cycle to) const
{
    uint64_t span = to - from;
    if (poweredDown_) {
        e.cyclesPowerDown += span;
        return;
    }
    if (from < refreshEnd_) {
        const uint64_t refreshing =
            std::min<Cycle>(to, refreshEnd_) - from;
        e.cyclesRefreshing += refreshing;
        span -= refreshing;
    }
    if (span == 0)
        return;
    if (anyBankOpen())
        e.cyclesActive += span;
    else
        e.cyclesPrecharge += span;
}

void
Rank::chargeEnergy(Cycle to)
{
    panic_if(to < chargedTo_, "rank energy charged to {} after {}", to,
             chargedTo_);
    accountEnergySpan(energy_, chargedTo_, to);
    chargedTo_ = to;
}

RankEnergyCounters
Rank::energy(Cycle to) const
{
    panic_if(to < chargedTo_, "rank energy read at {} after {}", to,
             chargedTo_);
    RankEnergyCounters e = energy_;
    accountEnergySpan(e, chargedTo_, to);
    return e;
}

void
Rank::creditPowerDown(uint64_t cycles)
{
    const uint64_t credit = std::min(cycles, energy_.cyclesPrecharge);
    energy_.cyclesPrecharge -= credit;
    energy_.cyclesPowerDown += credit;
}

} // namespace memsec::dram
