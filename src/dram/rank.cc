#include "dram/rank.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::dram {

void
Rank::saveState(Serializer &s) const
{
    s.section("rank");
    for (const auto &b : banks_)
        b.saveState(s);
    s.putU64(nextActRrd_);
    s.putU64(actWindow_.size());
    for (Cycle c : actWindow_)
        s.putU64(c);
    s.putU64(nextRead_);
    s.putU64(nextWrite_);
    s.putU64(refreshEnd_);
    s.putBool(poweredDown_);
    s.putU64(pdEnteredAt_);
    s.putU64(pdExitReadyAt_);
    s.putU64(energy_.activates);
    s.putU64(energy_.reads);
    s.putU64(energy_.writes);
    s.putU64(energy_.suppressedActs);
    s.putU64(energy_.suppressedCas);
    s.putU64(energy_.refreshes);
    s.putU64(energy_.cyclesActive);
    s.putU64(energy_.cyclesPrecharge);
    s.putU64(energy_.cyclesPowerDown);
    s.putU64(energy_.cyclesRefreshing);
}

void
Rank::restoreState(Deserializer &d)
{
    d.section("rank");
    for (auto &b : banks_)
        b.restoreState(d);
    nextActRrd_ = d.getU64();
    const uint64_t acts = d.getU64();
    actWindow_.clear();
    for (uint64_t i = 0; i < acts; ++i)
        actWindow_.push_back(d.getU64());
    nextRead_ = d.getU64();
    nextWrite_ = d.getU64();
    refreshEnd_ = d.getU64();
    poweredDown_ = d.getBool();
    pdEnteredAt_ = d.getU64();
    pdExitReadyAt_ = d.getU64();
    energy_.activates = d.getU64();
    energy_.reads = d.getU64();
    energy_.writes = d.getU64();
    energy_.suppressedActs = d.getU64();
    energy_.suppressedCas = d.getU64();
    energy_.refreshes = d.getU64();
    energy_.cyclesActive = d.getU64();
    energy_.cyclesPrecharge = d.getU64();
    energy_.cyclesPowerDown = d.getU64();
    energy_.cyclesRefreshing = d.getU64();
}

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
Rank::recordActivate(Cycle t, bool suppressed)
{
    panic_if(t < nextActRankLimit(),
             "rank ACT at {} violates tRRD/tFAW limit {}", t,
             nextActRankLimit());
    nextActRrd_ = t + tp_.rrd;
    actWindow_.push_back(t);
    while (actWindow_.size() > 4)
        actWindow_.pop_front();
    if (suppressed)
        ++energy_.suppressedActs;
    else
        ++energy_.activates;
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

bool
Rank::anyBankOpen() const
{
    for (const auto &b : banks_) {
        if (b.isOpen())
            return true;
    }
    return false;
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
Rank::tickEnergy(Cycle now)
{
    switch (powerState(now)) {
      case PowerState::PowerDown:
        ++energy_.cyclesPowerDown;
        break;
      case PowerState::Refreshing:
        ++energy_.cyclesRefreshing;
        break;
      case PowerState::ActiveStandby:
        ++energy_.cyclesActive;
        break;
      case PowerState::PrechargeStandby:
        ++energy_.cyclesPrecharge;
        break;
    }
}

void
Rank::accountEnergySpan(Cycle from, Cycle to)
{
    uint64_t span = to - from;
    if (poweredDown_) {
        energy_.cyclesPowerDown += span;
        return;
    }
    if (from < refreshEnd_) {
        const uint64_t refreshing =
            std::min<Cycle>(to, refreshEnd_) - from;
        energy_.cyclesRefreshing += refreshing;
        span -= refreshing;
    }
    if (span == 0)
        return;
    if (anyBankOpen())
        energy_.cyclesActive += span;
    else
        energy_.cyclesPrecharge += span;
}

} // namespace memsec::dram
