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
    r.recordActivate(0);
    EXPECT_EQ(r.nextActRankLimit(), tp.rrd);
    EXPECT_THROW(r.recordActivate(tp.rrd - 1), std::logic_error);
}

TEST(Rank, TfawLimitsFourActivates)
{
    Rank r(8, tp);
    // Four ACTs at the tRRD floor: 0, 5, 10, 15.
    for (Cycle t = 0; t < 4 * tp.rrd; t += tp.rrd)
        r.recordActivate(t);
    // The fifth must wait until 0 + tFAW = 24, not 20.
    EXPECT_EQ(r.nextActRankLimit(), tp.faw);
    EXPECT_THROW(r.recordActivate(20), std::logic_error);
    r.recordActivate(tp.faw);
}

TEST(Rank, CasTurnaroundWindows)
{
    Rank r(8, tp);
    r.recordRead(100);
    EXPECT_EQ(r.nextRead(), 100 + tp.ccd);
    EXPECT_EQ(r.nextWrite(), 100 + tp.rd2wr());
    r.recordWrite(100 + tp.rd2wr());
    EXPECT_EQ(r.nextRead(), 100 + tp.rd2wr() + tp.wr2rd());
}

TEST(Rank, EarlyCasPanics)
{
    Rank r(8, tp);
    r.recordRead(0);
    EXPECT_THROW(r.recordRead(tp.ccd - 1), std::logic_error);
    Rank r2(8, tp);
    r2.recordWrite(0);
    EXPECT_THROW(r2.recordRead(tp.wr2rd() - 1), std::logic_error);
}

TEST(Rank, RefreshBlocksBanks)
{
    Rank r(8, tp);
    r.startRefresh(10);
    EXPECT_EQ(r.refreshEndsAt(), 10 + tp.rfc);
    for (unsigned b = 0; b < 8; ++b)
        EXPECT_GE(r.bank(b).nextAct(), 10 + tp.rfc);
    EXPECT_EQ(r.energy().refreshes, 1u);
}

TEST(Rank, RefreshWithOpenRowPanics)
{
    Rank r(8, tp);
    r.bank(0).doActivate(0, 1, tp);
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
    r.bank(0).doActivate(0, 1, tp);
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
    r.bank(2).doActivate(0, 1, tp);
    EXPECT_EQ(r.powerState(5), PowerState::ActiveStandby);
    r.bank(2).doPrecharge(tp.ras, tp);
    EXPECT_EQ(r.powerState(tp.ras + 1), PowerState::PrechargeStandby);
    r.startRefresh(100);
    EXPECT_EQ(r.powerState(150), PowerState::Refreshing);
    EXPECT_EQ(r.powerState(100 + tp.rfc), PowerState::PrechargeStandby);
}

TEST(Rank, EnergyTickAccumulatesByState)
{
    Rank r(8, tp);
    for (Cycle t = 0; t < 10; ++t)
        r.tickEnergy(t);
    EXPECT_EQ(r.energy().cyclesPrecharge, 10u);
    r.bank(0).doActivate(10, 1, tp);
    for (Cycle t = 10; t < 15; ++t)
        r.tickEnergy(t);
    EXPECT_EQ(r.energy().cyclesActive, 5u);
}

TEST(Rank, SuppressedActivateNotCharged)
{
    Rank r(8, tp);
    r.recordActivate(0, true);
    EXPECT_EQ(r.energy().activates, 0u);
    EXPECT_EQ(r.energy().suppressedActs, 1u);
    // Timing windows still advance.
    EXPECT_EQ(r.nextActRankLimit(), tp.rrd);
}
