#include <gtest/gtest.h>

#include <stdexcept>

#include "dram/rank.hh"

using namespace memsec;
using namespace memsec::dram;

namespace {
const TimingParams tp = TimingParams::ddr3_1600_4gb();
}

TEST(Rank, TrrdBetweenActivates)
{
    Rank r(8, tp);
    r.activate(0, 0, 1);
    EXPECT_EQ(r.nextActRankLimit(), tp.rrd);
    EXPECT_THROW(r.activate(1, tp.rrd - 1, 1), std::logic_error);
}

TEST(Rank, TfawLimitsFourActivates)
{
    Rank r(8, tp);
    // Four ACTs at the tRRD floor: 0, 5, 10, 15.
    for (unsigned b = 0; b < 4; ++b)
        r.activate(b, b * tp.rrd, 1);
    // The fifth must wait until 0 + tFAW = 24, not 20.
    EXPECT_EQ(r.nextActRankLimit(), tp.faw);
    EXPECT_THROW(r.activate(4, 20, 1), std::logic_error);
    r.activate(5, tp.faw, 1);
}

TEST(Rank, CasTurnaroundWindows)
{
    Rank r(8, tp);
    r.activate(0, 0, 1);
    r.read(0, 100, false);
    EXPECT_EQ(r.nextRead(), 100 + tp.ccd);
    EXPECT_EQ(r.nextWrite(), 100 + tp.rd2wr());
    r.write(0, 100 + tp.rd2wr(), false);
    EXPECT_EQ(r.nextRead(), 100 + tp.rd2wr() + tp.wr2rd());
}

TEST(Rank, EarlyCasPanics)
{
    Rank r(8, tp);
    r.activate(0, 0, 1);
    r.read(0, 100, false);
    EXPECT_THROW(r.read(0, 100 + tp.ccd - 1, false), std::logic_error);
    Rank r2(8, tp);
    r2.activate(0, 0, 1);
    r2.write(0, 100, false);
    EXPECT_THROW(r2.read(0, 100 + tp.wr2rd() - 1, false),
                 std::logic_error);
}

TEST(Rank, RefreshBlocksBanks)
{
    Rank r(8, tp);
    r.startRefresh(10);
    EXPECT_EQ(r.refreshEndsAt(), 10 + tp.rfc);
    for (unsigned b = 0; b < 8; ++b)
        EXPECT_GE(r.bank(b).nextAct(), 10 + tp.rfc);
    EXPECT_EQ(r.energy(0).refreshes, 1u);
}

TEST(Rank, RefreshWithOpenRowPanics)
{
    Rank r(8, tp);
    r.activate(0, 0, 1);
    EXPECT_THROW(r.startRefresh(50), std::logic_error);
}

TEST(Rank, PowerDownLifecycle)
{
    Rank r(8, tp);
    EXPECT_FALSE(r.isPoweredDown());
    r.enterPowerDown(100);
    EXPECT_TRUE(r.isPoweredDown());
    EXPECT_EQ(r.earliestPdExit(), 100 + tp.cke);
    EXPECT_THROW(r.exitPowerDown(100 + tp.cke - 1), std::logic_error);
    r.exitPowerDown(100 + tp.cke);
    EXPECT_FALSE(r.isPoweredDown());
    // Commands blocked until tXP after exit.
    EXPECT_GE(r.bank(0).nextAct(), 100 + tp.cke + tp.xp);
}

TEST(Rank, PowerDownWithOpenRowPanics)
{
    Rank r(8, tp);
    r.activate(0, 0, 1);
    EXPECT_THROW(r.enterPowerDown(50), std::logic_error);
}

TEST(Rank, DoublePowerDownPanics)
{
    Rank r(8, tp);
    r.enterPowerDown(0);
    EXPECT_THROW(r.enterPowerDown(10), std::logic_error);
}

TEST(Rank, PowerStateClassification)
{
    Rank r(8, tp);
    EXPECT_EQ(r.powerState(0), PowerState::PrechargeStandby);
    r.activate(2, 0, 1);
    EXPECT_EQ(r.powerState(5), PowerState::ActiveStandby);
    r.precharge(2, tp.ras);
    EXPECT_EQ(r.powerState(tp.ras + 1), PowerState::PrechargeStandby);
    r.startRefresh(100);
    EXPECT_EQ(r.powerState(150), PowerState::Refreshing);
    EXPECT_EQ(r.powerState(100 + tp.rfc), PowerState::PrechargeStandby);
}

TEST(Rank, EnergyTickAccumulatesByState)
{
    Rank r(8, tp);
    r.chargeEnergy(10);
    EXPECT_EQ(r.energy(10).cyclesPrecharge, 10u);
    r.activate(0, 10, 1);
    r.chargeEnergy(15);
    EXPECT_EQ(r.energy(15).cyclesActive, 5u);
    // Reading ahead charges the copy, not the rank.
    EXPECT_EQ(r.energy(20).cyclesActive, 10u);
    EXPECT_EQ(r.energy(15).cyclesActive, 5u);
    // Charge before the state changes; then a span split by a refresh
    // completing inside it.
    r.chargeEnergy(30);
    r.read(0, 30, true);
    r.chargeEnergy(100);
    r.startRefresh(100);
    const RankEnergyCounters e = r.energy(100 + tp.rfc + 7);
    EXPECT_EQ(e.cyclesActive, 20u);
    EXPECT_EQ(e.cyclesRefreshing, tp.rfc);
    EXPECT_EQ(e.cyclesPrecharge, 10u + 70u + 7u);
    EXPECT_THROW(r.chargeEnergy(99), std::logic_error);
}

TEST(Rank, OpenBankCountFollowsEveryBankMutation)
{
    Rank r(8, tp);
    EXPECT_FALSE(r.anyBankOpen());
    r.activate(0, 0, 1);
    r.activate(3, tp.rrd, 2);
    EXPECT_TRUE(r.anyBankOpen());
    r.read(0, 100, true); // RDA closes bank 0
    EXPECT_FALSE(r.bank(0).isOpen());
    EXPECT_TRUE(r.anyBankOpen());
    r.precharge(3, 200);
    EXPECT_FALSE(r.anyBankOpen());
    r.activate(3, 300, 4);
    r.write(3, 400, true); // WRA closes it again
    EXPECT_FALSE(r.anyBankOpen());
    // A panicking mutation leaves the count in step with the banks.
    EXPECT_THROW(r.precharge(3, 500), std::logic_error);
    EXPECT_FALSE(r.anyBankOpen());
}

TEST(Rank, SuppressedActivateNotCharged)
{
    Rank r(8, tp);
    r.activate(0, 0, 1, true);
    EXPECT_EQ(r.energy(0).activates, 0u);
    EXPECT_EQ(r.energy(0).suppressedActs, 1u);
    // Timing windows still advance.
    EXPECT_EQ(r.nextActRankLimit(), tp.rrd);
}
