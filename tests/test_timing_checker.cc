/**
 * @file
 * Every JEDEC rule the auditor enforces, violated once on purpose.
 * Non-strict mode records violations instead of panicking, so each
 * test builds a minimal command sequence that breaks exactly one rule
 * and asserts the auditor names it.
 */

#include <gtest/gtest.h>

#include "dram/timing_checker.hh"

using namespace memsec;
using namespace memsec::dram;

namespace {

const TimingParams tp = TimingParams::ddr3_1600_4gb();

Command
act(unsigned rank, unsigned bank, unsigned row)
{
    return Command{CmdType::Act, rank, bank, row, 0, false};
}

Command
cmd(CmdType t, unsigned rank, unsigned bank, unsigned row = 0)
{
    return Command{t, rank, bank, row, 0, false};
}

class CheckerTest : public ::testing::Test
{
  protected:
    CheckerTest() : ck(tp, 8, 8) { ck.setStrict(false); }

    /** Assert some recorded violation names `rule` (one command can
     *  break several rules at once). */
    void
    expectViolation(const std::string &rule)
    {
        ASSERT_FALSE(ck.violations().empty());
        bool found = false;
        for (const auto &v : ck.violations())
            found |= v.rule == rule;
        EXPECT_TRUE(found) << "no violation of rule " << rule
                           << "; last was "
                           << ck.violations().back().rule;
    }

    TimingChecker ck;
};

} // namespace

TEST_F(CheckerTest, CleanReadSequencePasses)
{
    EXPECT_TRUE(ck.observe(act(0, 0, 5), 0));
    EXPECT_TRUE(ck.observe(cmd(CmdType::Rd, 0, 0, 5), tp.rcd));
    EXPECT_TRUE(ck.violations().empty());
}

TEST_F(CheckerTest, CommandBusDoubleOccupancy)
{
    ck.observe(act(0, 0, 5), 10);
    EXPECT_FALSE(ck.observe(act(1, 0, 5), 10));
    expectViolation("cmd-bus");
}

TEST_F(CheckerTest, TrcViolation)
{
    ck.observe(act(0, 0, 5), 0);
    ck.observe(cmd(CmdType::RdA, 0, 0, 5), tp.rcd);
    // tRC = 39; try to re-activate at 38.
    EXPECT_FALSE(ck.observe(act(0, 0, 6), tp.rc - 1));
    expectViolation("tRC");
}

TEST_F(CheckerTest, RowStateActToOpenBank)
{
    ck.observe(act(0, 0, 5), 0);
    EXPECT_FALSE(ck.observe(act(0, 0, 6), 100));
    expectViolation("row-state");
}

TEST_F(CheckerTest, TrrdViolation)
{
    ck.observe(act(0, 0, 5), 0);
    EXPECT_FALSE(ck.observe(act(0, 1, 5), tp.rrd - 1));
    expectViolation("tRRD");
}

TEST_F(CheckerTest, TfawViolation)
{
    ck.observe(act(0, 0, 1), 0);
    ck.observe(act(0, 1, 1), 5);
    ck.observe(act(0, 2, 1), 10);
    ck.observe(act(0, 3, 1), 15);
    EXPECT_FALSE(ck.observe(act(0, 4, 1), tp.faw - 1));
    expectViolation("tFAW");
}

TEST_F(CheckerTest, TfawExactBoundaryPasses)
{
    ck.observe(act(0, 0, 1), 0);
    ck.observe(act(0, 1, 1), 5);
    ck.observe(act(0, 2, 1), 10);
    ck.observe(act(0, 3, 1), 15);
    EXPECT_TRUE(ck.observe(act(0, 4, 1), tp.faw));
}

TEST_F(CheckerTest, TrcdViolation)
{
    ck.observe(act(0, 0, 5), 0);
    EXPECT_FALSE(ck.observe(cmd(CmdType::Rd, 0, 0, 5), tp.rcd - 1));
    expectViolation("tRCD");
}

TEST_F(CheckerTest, ColumnToClosedBank)
{
    EXPECT_FALSE(ck.observe(cmd(CmdType::Rd, 0, 0, 5), 50));
    expectViolation("row-state");
}

TEST_F(CheckerTest, ColumnToWrongRow)
{
    ck.observe(act(0, 0, 5), 0);
    EXPECT_FALSE(ck.observe(cmd(CmdType::Rd, 0, 0, 6), tp.rcd));
    expectViolation("row-state");
}

TEST_F(CheckerTest, TccdViolation)
{
    ck.observe(act(0, 0, 5), 0);
    ck.observe(cmd(CmdType::Rd, 0, 0, 5), tp.rcd);
    EXPECT_FALSE(
        ck.observe(cmd(CmdType::Rd, 0, 0, 5), tp.rcd + tp.ccd - 1));
    expectViolation("tCCD");
}

TEST_F(CheckerTest, WriteToReadTurnaround)
{
    ck.observe(act(0, 0, 5), 0);
    ck.observe(act(0, 1, 6), tp.rrd);
    ck.observe(cmd(CmdType::Wr, 0, 0, 5), 11);
    // wr2rd = 15: a read at +14 to the same rank must fail.
    EXPECT_FALSE(ck.observe(cmd(CmdType::Rd, 0, 1, 6), 11 + 14));
    expectViolation("tWTR");
}

TEST_F(CheckerTest, ReadToWriteTurnaround)
{
    ck.observe(act(0, 0, 5), 0);
    ck.observe(act(0, 1, 6), tp.rrd);
    ck.observe(cmd(CmdType::Rd, 0, 0, 5), 11);
    // rd2wr = 10: a write at +9 must fail (also a data-bus overlap,
    // but the CAS rule fires first).
    EXPECT_FALSE(ck.observe(cmd(CmdType::Wr, 0, 1, 6), 11 + 9));
    expectViolation("rd2wr");
}

TEST_F(CheckerTest, DataBusOverlapAcrossRanks)
{
    ck.observe(act(0, 0, 5), 0);
    ck.observe(act(1, 0, 6), tp.rrd);
    ck.observe(cmd(CmdType::Rd, 0, 0, 5), 11);
    // Reads to different ranks 2 cycles apart: bursts overlap.
    EXPECT_FALSE(ck.observe(cmd(CmdType::Rd, 1, 0, 6), 13));
    expectViolation("data-bus");
}

TEST_F(CheckerTest, TrtrsViolation)
{
    ck.observe(act(0, 0, 5), 0);
    ck.observe(act(1, 0, 6), tp.rrd);
    ck.observe(cmd(CmdType::Rd, 0, 0, 5), 11);
    // Burst gap of exactly tBURST but no tRTRS margin.
    EXPECT_FALSE(ck.observe(cmd(CmdType::Rd, 1, 0, 6), 11 + tp.burst));
    expectViolation("tRTRS");
}

TEST_F(CheckerTest, SameRankBackToBackBurstsPass)
{
    ck.observe(act(0, 0, 5), 0);
    ck.observe(act(0, 1, 6), tp.rrd);
    ck.observe(cmd(CmdType::Rd, 0, 0, 5), 11);
    // Second bank's CAS must respect its own tRCD (5 + 11 = 16),
    // which also satisfies tCCD; same-rank bursts need no tRTRS.
    EXPECT_TRUE(ck.observe(cmd(CmdType::Rd, 0, 1, 6), 16));
}

TEST_F(CheckerTest, PreBeforeTrasFails)
{
    ck.observe(act(0, 0, 5), 0);
    EXPECT_FALSE(ck.observe(cmd(CmdType::Pre, 0, 0, 5), tp.ras - 1));
    expectViolation("tRAS");
}

TEST_F(CheckerTest, PreBeforeTwrFails)
{
    ck.observe(act(0, 0, 5), 0);
    ck.observe(cmd(CmdType::Wr, 0, 0, 5), tp.rcd);
    const Cycle tooSoon = tp.rcd + tp.cwd + tp.burst + tp.wr - 1;
    EXPECT_FALSE(ck.observe(cmd(CmdType::Pre, 0, 0, 5), tooSoon));
    expectViolation("tWR");
}

TEST_F(CheckerTest, PreBeforeTrtpFails)
{
    ck.observe(act(0, 0, 5), 0);
    ck.observe(cmd(CmdType::Rd, 0, 0, 5), tp.rcd + 20);
    EXPECT_FALSE(ck.observe(cmd(CmdType::Pre, 0, 0, 5),
                            tp.rcd + 20 + tp.rtp - 1));
    expectViolation("tRTP");
}

TEST_F(CheckerTest, ActAfterAutoPrechargeBoundary)
{
    // WRA: ACT-to-ACT = 43. ACT at 42 fails, at 43 passes.
    ck.observe(act(0, 0, 5), 0);
    ck.observe(cmd(CmdType::WrA, 0, 0, 5), tp.rcd);
    EXPECT_FALSE(ck.observe(act(0, 0, 6), 42));
    expectViolation("tRP");
    TimingChecker ck2(tp, 8, 8);
    ck2.setStrict(false);
    ck2.observe(act(0, 0, 5), 0);
    ck2.observe(cmd(CmdType::WrA, 0, 0, 5), tp.rcd);
    EXPECT_TRUE(ck2.observe(act(0, 0, 6), 43));
}

TEST_F(CheckerTest, RefreshDuringOpenRowFails)
{
    ck.observe(act(0, 0, 5), 0);
    EXPECT_FALSE(ck.observe(cmd(CmdType::Ref, 0, 0), 100));
    expectViolation("row-state");
}

TEST_F(CheckerTest, CommandDuringRefreshFails)
{
    ck.observe(cmd(CmdType::Ref, 0, 0), 0);
    EXPECT_FALSE(ck.observe(act(0, 0, 5), tp.rfc - 1));
    expectViolation("tRFC");
}

TEST_F(CheckerTest, CommandToPoweredDownRankFails)
{
    ck.observe(cmd(CmdType::PdEnter, 0, 0), 0);
    EXPECT_FALSE(ck.observe(act(0, 0, 5), 2));
    expectViolation("power-down");
}

TEST_F(CheckerTest, PowerDownExitBeforeTckeFails)
{
    ck.observe(cmd(CmdType::PdEnter, 0, 0), 0);
    EXPECT_FALSE(ck.observe(cmd(CmdType::PdExit, 0, 0), tp.cke - 1));
    expectViolation("tCKE");
}

TEST_F(CheckerTest, CommandBeforeTxpAfterExitFails)
{
    ck.observe(cmd(CmdType::PdEnter, 0, 0), 0);
    EXPECT_TRUE(ck.observe(cmd(CmdType::PdExit, 0, 0), tp.cke));
    EXPECT_FALSE(ck.observe(act(0, 0, 5), tp.cke + tp.xp - 1));
    expectViolation("tXP");
    // A fresh checker accepts the same ACT once tXP has elapsed.
    TimingChecker ok(tp, 8, 8);
    ok.setStrict(false);
    ok.observe(cmd(CmdType::PdEnter, 0, 0), 0);
    ok.observe(cmd(CmdType::PdExit, 0, 0), tp.cke);
    EXPECT_TRUE(ok.observe(act(0, 0, 5), tp.cke + tp.xp));
}

TEST_F(CheckerTest, StrictModePanics)
{
    TimingChecker strict(tp, 8, 8);
    strict.observe(act(0, 0, 5), 0);
    EXPECT_THROW(strict.observe(act(0, 0, 6), 100), std::logic_error);
}

TEST_F(CheckerTest, ObservedCountIncrements)
{
    ck.observe(act(0, 0, 5), 0);
    ck.observe(cmd(CmdType::Rd, 0, 0, 5), tp.rcd);
    EXPECT_EQ(ck.observed(), 2u);
}

/**
 * Violation records are checkpointed and land in fault-campaign
 * reports, so their detail text is part of the result, not a log
 * message: pin it verbatim (rule and detail, in the order the checks
 * fire) for the rule classes whose text carries computed numbers.
 */
TEST_F(CheckerTest, NonStrictDetailTextIsPinned)
{
    auto records = [](const TimingChecker &c) {
        std::vector<std::string> out;
        for (const auto &v : c.violations())
            out.push_back(std::to_string(v.cycle) + " " + v.rule + ": " +
                          v.detail);
        return out;
    };
    using Lines = std::vector<std::string>;

    // tFAW: a fifth ACT one cycle inside the window.
    ck.observe(act(0, 0, 1), 0);
    ck.observe(act(0, 1, 1), 5);
    ck.observe(act(0, 2, 1), 10);
    ck.observe(act(0, 3, 1), 15);
    ck.observe(act(0, 4, 1), tp.faw - 1);
    EXPECT_EQ(records(ck),
              Lines{"23 tFAW: fifth ACT within tFAW window (23 < 24)"});

    // Data-bus overlap across ranks, inside the second bank's tRCD
    // (the rank-switch gap underflows: the text carries the raw
    // unsigned difference).
    TimingChecker bus(tp, 8, 8);
    bus.setStrict(false);
    bus.observe(act(0, 0, 5), 0);
    bus.observe(act(1, 0, 6), tp.rrd);
    bus.observe(cmd(CmdType::Rd, 0, 0, 5), 11);
    bus.observe(cmd(CmdType::Rd, 1, 0, 6), 13);
    EXPECT_EQ(records(bus),
              (Lines{"13 tRCD: CAS 8 after ACT < tRCD",
                     "13 data-bus: burst at 24 overlaps burst ending 26",
                     "13 tRTRS: rank switch gap 18446744073709551614 "
                     "< tRTRS"}));

    // RD-to-WR turnaround on one rank, with the burst overlap it
    // implies.
    TimingChecker rw(tp, 8, 8);
    rw.setStrict(false);
    rw.observe(act(0, 0, 5), 0);
    rw.observe(act(0, 1, 6), tp.rrd);
    rw.observe(cmd(CmdType::Rd, 0, 0, 5), 11);
    rw.observe(cmd(CmdType::Wr, 0, 1, 6), 11 + 9);
    EXPECT_EQ(records(rw),
              (Lines{"20 rd2wr: RD-to-WR same rank gap 9 < 10",
                     "20 data-bus: burst at 25 overlaps burst ending 26"}));

    // Row state: ACT to an open bank (the checker still applies it,
    // so row 6 is open afterwards), CAS to the wrong row, PRE and CAS
    // to a closed bank.
    TimingChecker row(tp, 8, 8);
    row.setStrict(false);
    row.observe(act(0, 0, 5), 0);
    row.observe(act(0, 0, 6), 100);
    row.observe(cmd(CmdType::Rd, 0, 0, 5), 200);
    row.observe(cmd(CmdType::Pre, 0, 0, 5), 300);
    row.observe(cmd(CmdType::Pre, 0, 0, 5), 400);
    row.observe(cmd(CmdType::Rd, 0, 0, 5), 500);
    EXPECT_EQ(records(row),
              (Lines{"100 row-state: ACT to bank with open row",
                     "200 row-state: column command to row 5 but open "
                     "row is 6",
                     "400 row-state: PRE to closed bank",
                     "500 row-state: column command to closed bank",
                     "500 row-state: column command to row 5 but open "
                     "row is 4294967295"}));
}
