#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "dram/dram_system.hh"

using namespace memsec;
using namespace memsec::dram;

namespace {

class DramSystemTest : public ::testing::Test
{
  protected:
    DramSystemTest()
        : sys(TimingParams::ddr3_1600_4gb(), Geometry{})
    {
    }

    Command
    mk(CmdType t, unsigned rank, unsigned bank, unsigned row = 0)
    {
        return Command{t, rank, bank, row, 0, false};
    }

    DramSystem sys;
};

} // namespace

TEST_F(DramSystemTest, ReadTransactionReturnsDataWindow)
{
    const auto &tp = sys.timing();
    sys.issue(mk(CmdType::Act, 0, 0, 9), 0);
    const IssueResult r = sys.issue(mk(CmdType::RdA, 0, 0, 9), tp.rcd);
    EXPECT_EQ(r.dataStart, tp.rcd + tp.cas);
    EXPECT_EQ(r.dataEnd, tp.rcd + tp.cas + tp.burst);
}

TEST_F(DramSystemTest, WriteTransactionDataWindow)
{
    const auto &tp = sys.timing();
    sys.issue(mk(CmdType::Act, 0, 0, 9), 0);
    const IssueResult r = sys.issue(mk(CmdType::WrA, 0, 0, 9), tp.rcd);
    EXPECT_EQ(r.dataStart, tp.rcd + tp.cwd);
    EXPECT_EQ(r.dataEnd, tp.rcd + tp.cwd + tp.burst);
}

TEST_F(DramSystemTest, CanIssueReportsBlockingRule)
{
    std::string why;
    EXPECT_FALSE(sys.canIssue(mk(CmdType::Rd, 0, 0, 9), 0, &why));
    EXPECT_EQ(why, "row not open");

    sys.issue(mk(CmdType::Act, 0, 0, 9), 0);
    EXPECT_FALSE(sys.canIssue(mk(CmdType::Act, 0, 1, 9), 2, &why));
    EXPECT_EQ(why, "rank tRRD/tFAW");
}

TEST_F(DramSystemTest, CanIssueReportsTheFirstBlockingRuleInOrder)
{
    // A refreshing rank reports the refresh even where a bank window
    // or the row state would block too.
    std::string why;
    sys.issue(mk(CmdType::Ref, 0, 0), 0);
    EXPECT_FALSE(sys.canIssue(mk(CmdType::Rd, 0, 0, 9), 1, &why));
    EXPECT_EQ(why, "rank refreshing");
    EXPECT_FALSE(sys.canIssue(mk(CmdType::Act, 0, 0, 9), 1, &why));
    EXPECT_EQ(why, "rank refreshing");
    EXPECT_FALSE(sys.canIssue(mk(CmdType::Act, 1, 0, 9), 0, &why));
    EXPECT_EQ(why, "command bus busy");
}

TEST_F(DramSystemTest, EarliestIssueIsTheFirstLegalCycle)
{
    const auto &tp = sys.timing();
    sys.issue(mk(CmdType::Act, 0, 0, 9), 0);
    EXPECT_EQ(sys.earliestIssue(mk(CmdType::Rd, 0, 0, 9)), tp.rcd);
    EXPECT_EQ(sys.earliestIssue(mk(CmdType::Rd, 0, 0, 8)), kNoCycle);
    EXPECT_EQ(sys.earliestIssue(mk(CmdType::Act, 0, 0, 9)), kNoCycle);
    EXPECT_EQ(sys.earliestIssue(mk(CmdType::Act, 0, 1, 9)), tp.rrd);
    EXPECT_EQ(sys.earliestIssue(mk(CmdType::Pre, 0, 0)), tp.ras);
    EXPECT_EQ(sys.earliestIssue(mk(CmdType::Pre, 0, 1)), kNoCycle);

    // A read on another rank waits for the data bus plus tRTRS, which
    // here binds after its own tRCD.
    sys.issue(mk(CmdType::Act, 1, 0, 4), tp.rrd);
    sys.issue(mk(CmdType::Rd, 0, 0, 9), tp.rcd);
    const Cycle busFree = tp.rcd + tp.cas + tp.burst + tp.rtrs;
    const Cycle want = std::max<Cycle>(tp.rrd + tp.rcd, busFree - tp.cas);
    ASSERT_GT(busFree - tp.cas, tp.rrd + tp.rcd);
    const Command rd1 = mk(CmdType::Rd, 1, 0, 4);
    EXPECT_EQ(sys.earliestIssue(rd1), want);
    std::string why;
    EXPECT_FALSE(sys.canIssue(rd1, want - 1, &why));
    EXPECT_EQ(why, "data bus / tRTRS");
    EXPECT_TRUE(sys.canIssue(rd1, want));
}

TEST_F(DramSystemTest, RefreshWaitsForEveryBankToPrecharge)
{
    const auto &tp = sys.timing();
    const Command ref = mk(CmdType::Ref, 0, 0);
    EXPECT_EQ(sys.earliestIssue(ref), 0u);
    sys.issue(mk(CmdType::Act, 0, 3, 1), 0);
    EXPECT_EQ(sys.earliestIssue(ref), kNoCycle);
    std::string why;
    EXPECT_FALSE(sys.canIssue(ref, 100, &why));
    EXPECT_EQ(why, "banks not precharged for REF");
    sys.issue(mk(CmdType::Pre, 0, 3), tp.ras);
    // The bank's next ACT: the later of tRAS + tRP and tRC.
    EXPECT_EQ(sys.earliestIssue(ref), std::max(tp.ras + tp.rp, tp.rc));
    EXPECT_FALSE(sys.canIssue(ref, tp.rc - 1, &why));
    EXPECT_EQ(why, "banks not precharged for REF");
    EXPECT_TRUE(sys.canIssue(ref, tp.rc));
}

TEST_F(DramSystemTest, LegalityVersionsTrackWhatACommandTouches)
{
    const auto &tp = sys.timing();
    const uint64_t r0 = sys.rankVersion(0);
    const uint64_t r1 = sys.rankVersion(1);
    const uint64_t bus = sys.dataBusVersion();
    sys.issue(mk(CmdType::Act, 0, 0, 9), 0);
    EXPECT_GT(sys.rankVersion(0), r0);
    EXPECT_EQ(sys.rankVersion(1), r1);
    EXPECT_EQ(sys.dataBusVersion(), bus);
    sys.issue(mk(CmdType::Rd, 0, 0, 9), tp.rcd);
    EXPECT_GT(sys.dataBusVersion(), bus);
    EXPECT_EQ(sys.rankVersion(1), r1);
}

TEST_F(DramSystemTest, IllegalIssuePanics)
{
    EXPECT_THROW(sys.issue(mk(CmdType::Rd, 0, 0, 9), 0),
                 std::logic_error);
}

TEST_F(DramSystemTest, CommandBusSharedAcrossRanks)
{
    sys.issue(mk(CmdType::Act, 0, 0, 9), 0);
    std::string why;
    EXPECT_FALSE(sys.canIssue(mk(CmdType::Act, 5, 0, 9), 0, &why));
    EXPECT_EQ(why, "command bus busy");
    EXPECT_TRUE(sys.canIssue(mk(CmdType::Act, 5, 0, 9), 1, &why));
}

TEST_F(DramSystemTest, EnergyCountersTrackCommands)
{
    const auto &tp = sys.timing();
    sys.issue(mk(CmdType::Act, 2, 3, 9), 0);
    sys.issue(mk(CmdType::RdA, 2, 3, 9), tp.rcd);
    EXPECT_EQ(sys.rank(2).energy().activates, 1u);
    EXPECT_EQ(sys.rank(2).energy().reads, 1u);
    EXPECT_EQ(sys.rank(2).energy().writes, 0u);
}

TEST_F(DramSystemTest, SuppressedCommandsNotCharged)
{
    const auto &tp = sys.timing();
    Command a = mk(CmdType::Act, 1, 0, 9);
    a.suppressed = true;
    sys.issue(a, 0);
    Command r = mk(CmdType::RdA, 1, 0, 9);
    r.suppressed = true;
    sys.issue(r, tp.rcd);
    EXPECT_EQ(sys.rank(1).energy().activates, 0u);
    EXPECT_EQ(sys.rank(1).energy().reads, 0u);
    EXPECT_EQ(sys.rank(1).energy().suppressedActs, 1u);
    EXPECT_EQ(sys.rank(1).energy().suppressedCas, 1u);
}

TEST_F(DramSystemTest, CheckerSeesEveryCommand)
{
    const auto &tp = sys.timing();
    sys.issue(mk(CmdType::Act, 0, 0, 9), 0);
    sys.issue(mk(CmdType::RdA, 0, 0, 9), tp.rcd);
    EXPECT_EQ(sys.checker().observed(), 2u);
    EXPECT_EQ(sys.commandsIssued(), 2u);
}

TEST_F(DramSystemTest, RefreshBlocksRank)
{
    const auto &tp = sys.timing();
    sys.issue(mk(CmdType::Ref, 4, 0), 0);
    std::string why;
    EXPECT_FALSE(sys.canIssue(mk(CmdType::Act, 4, 0, 1), tp.rfc - 1,
                              &why));
    EXPECT_EQ(why, "rank refreshing");
    EXPECT_TRUE(sys.canIssue(mk(CmdType::Act, 4, 0, 1), tp.rfc, &why));
}

TEST_F(DramSystemTest, PowerDownRoundTrip)
{
    const auto &tp = sys.timing();
    sys.issue(mk(CmdType::PdEnter, 3, 0), 0);
    EXPECT_TRUE(sys.rank(3).isPoweredDown());
    std::string why;
    EXPECT_FALSE(sys.canIssue(mk(CmdType::Act, 3, 0, 1), 2, &why));
    sys.issue(mk(CmdType::PdExit, 3, 0), tp.cke);
    EXPECT_FALSE(sys.rank(3).isPoweredDown());
    EXPECT_FALSE(sys.canIssue(mk(CmdType::Act, 3, 0, 1),
                              tp.cke + tp.xp - 1, &why));
    EXPECT_TRUE(
        sys.canIssue(mk(CmdType::Act, 3, 0, 1), tp.cke + tp.xp, &why));
}

TEST_F(DramSystemTest, TickAccumulatesEnergyResidency)
{
    for (Cycle t = 0; t < 100; ++t)
        sys.tick(t);
    EXPECT_EQ(sys.rank(0).energy().cyclesPrecharge, 100u);
}

TEST_F(DramSystemTest, DataBusUtilisationCounted)
{
    const auto &tp = sys.timing();
    sys.issue(mk(CmdType::Act, 0, 0, 9), 0);
    sys.issue(mk(CmdType::RdA, 0, 0, 9), tp.rcd);
    EXPECT_EQ(sys.buses().dataBusyCycles(), tp.burst);
}

// Crash handlers are a process-wide registry, so one panic dumps the
// command log of EVERY live DramSystem. Two systems sharing a crash
// dir and fingerprint tag (e.g. a retried run in a parallel campaign)
// must still land in distinct files — the process-wide dump counter
// suffixes each path.
TEST(DramSystemCrashDump, ConcurrentDumpsGetDistinctPaths)
{
    std::string tmpl = ::testing::TempDir() + "memsec-crash-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(mkdtemp(buf.data()), nullptr);
    const std::string dir(buf.data());

    DramSystem a(TimingParams::ddr3_1600_4gb(), Geometry{});
    DramSystem b(TimingParams::ddr3_1600_4gb(), Geometry{});
    a.setCrashDumpDir(dir, "sametag");
    b.setCrashDumpDir(dir, "sametag");
    a.issue(Command{CmdType::Act, 0, 0, 9, 0, false}, 0);
    // Illegal issue: panics, and the panic path runs both systems'
    // dump handlers against the same dir/tag.
    EXPECT_THROW(a.issue(Command{CmdType::Rd, 0, 1, 9, 0, false}, 0),
                 std::logic_error);

    std::vector<std::string> dumps;
    for (const auto &ent : std::filesystem::directory_iterator(dir)) {
        const std::string name = ent.path().filename().string();
        if (name.rfind("cmdlog-sametag-", 0) == 0)
            dumps.push_back(name);
    }
    ASSERT_EQ(dumps.size(), 2u)
        << "expected one uniquely named dump per live DramSystem";
    EXPECT_NE(dumps[0], dumps[1]);
}
