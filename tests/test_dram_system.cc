#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dram/dram_system.hh"
#include "util/random.hh"
#include "util/serialize.hh"

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
    uint64_t any = sys.legalityVersion();
    sys.issue(mk(CmdType::Act, 0, 0, 9), 0);
    EXPECT_GT(sys.rankVersion(0), r0);
    EXPECT_EQ(sys.rankVersion(1), r1);
    EXPECT_EQ(sys.dataBusVersion(), bus);
    EXPECT_GT(sys.legalityVersion(), any);
    any = sys.legalityVersion();
    sys.issue(mk(CmdType::Rd, 0, 0, 9), tp.rcd);
    EXPECT_GT(sys.dataBusVersion(), bus);
    EXPECT_EQ(sys.rankVersion(1), r1);
    EXPECT_GT(sys.legalityVersion(), any);
    // A restore moves them all.
    any = sys.legalityVersion();
    const uint64_t r1Before = sys.rankVersion(1);
    const uint64_t busBefore = sys.dataBusVersion();
    Serializer s;
    sys.saveState(s);
    Deserializer d(s.data());
    sys.restoreState(d);
    EXPECT_GT(sys.rankVersion(1), r1Before);
    EXPECT_GT(sys.dataBusVersion(), busBefore);
    EXPECT_GT(sys.legalityVersion(), any);
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
    EXPECT_EQ(sys.energy(2).activates, 1u);
    EXPECT_EQ(sys.energy(2).reads, 1u);
    EXPECT_EQ(sys.energy(2).writes, 0u);
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
    EXPECT_EQ(sys.energy(1).activates, 0u);
    EXPECT_EQ(sys.energy(1).reads, 0u);
    EXPECT_EQ(sys.energy(1).suppressedActs, 1u);
    EXPECT_EQ(sys.energy(1).suppressedCas, 1u);
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
    EXPECT_EQ(sys.energy(0).cyclesPrecharge, 100u);
}

/**
 * Residency oracle. Seeded random legal command streams, accounted
 * by tick(), by fastForwardEnergy() idle spans, and across spans never
 * accounted at all, with mid-stream reads, charging power-down credits
 * and a save/restore. Every rank's four residency counters must equal
 * a brute-force tally of powerState(c) over every accounted cycle c,
 * taken after the commands issued at c.
 */
TEST(DramResidency, LazyBooksMatchAPerCycleTally)
{
    const TimingParams tp = TimingParams::ddr3_1600_4gb();
    const Geometry geo;
    static const CmdType kinds[] = {
        CmdType::Act,     CmdType::Act,    CmdType::Rd,  CmdType::RdA,
        CmdType::Wr,      CmdType::WrA,    CmdType::Pre, CmdType::Pre,
        CmdType::Pre,     CmdType::Pre,    CmdType::Ref, CmdType::Ref,
        CmdType::PdEnter, CmdType::PdExit,
    };
    for (uint64_t seed : {1, 2, 3, 4}) {
        SCOPED_TRACE(seed);
        auto sys = std::make_unique<DramSystem>(tp, geo);
        Rng rng(seed);
        // tally[r][PowerState] = cycles rank r was seen in that state.
        std::vector<std::array<uint64_t, 4>> tally(geo.ranksPerChannel);
        const auto account = [&](Cycle c) {
            for (unsigned r = 0; r < geo.ranksPerChannel; ++r)
                ++tally[r][static_cast<size_t>(
                    sys->rank(r).powerState(c))];
        };
        const auto expectBooks = [&](Cycle at) {
            for (unsigned r = 0; r < geo.ranksPerChannel; ++r) {
                const RankEnergyCounters e = sys->energy(r);
                const auto &want = tally[r];
                ASSERT_EQ(e.cyclesPrecharge,
                          want[size_t(PowerState::PrechargeStandby)])
                    << "rank " << r << " at " << at;
                ASSERT_EQ(e.cyclesActive,
                          want[size_t(PowerState::ActiveStandby)])
                    << "rank " << r << " at " << at;
                ASSERT_EQ(e.cyclesPowerDown,
                          want[size_t(PowerState::PowerDown)])
                    << "rank " << r << " at " << at;
                ASSERT_EQ(e.cyclesRefreshing,
                          want[size_t(PowerState::Refreshing)])
                    << "rank " << r << " at " << at;
            }
        };

        const Cycle end = 60000;
        bool restored = false;
        uint64_t issued = 0;
        Cycle t = 0;
        while (t < end) {
            const uint64_t roll = rng.below(1000);
            if (roll < 40) {
                // An idle span, accounted in one step.
                const Cycle span = 1 + rng.below(300);
                sys->fastForwardEnergy(t, t + span);
                for (Cycle c = t; c < t + span; ++c)
                    account(c);
                t += span;
                continue;
            }
            if (roll < 43) {
                // Cycles nobody accounts; the books skip them too.
                t += 1 + rng.below(50);
                continue;
            }
            for (int attempt = 0; attempt < 6; ++attempt) {
                Command c{kinds[rng.below(std::size(kinds))],
                          static_cast<unsigned>(
                              rng.below(geo.ranksPerChannel)),
                          static_cast<unsigned>(
                              rng.below(geo.banksPerRank)),
                          static_cast<unsigned>(rng.below(4)), 0, false};
                const Bank &bk = sys->rank(c.rank).bank(c.bank);
                if (isColumn(c.type) && bk.isOpen())
                    c.row = bk.openRow();
                if (sys->canIssue(c, t)) {
                    sys->issue(c, t);
                    ++issued;
                    break;
                }
            }
            sys->tick(t);
            account(t);
            ++t;
            if (roll < 60) {
                expectBooks(t);
            } else if (roll < 70) {
                // A charging read, as FsScheduler::finalize makes.
                sys->creditPowerDown(
                    static_cast<unsigned>(rng.below(geo.ranksPerChannel)),
                    0);
            }
            if (!restored && t >= end / 2) {
                // Odd seeds restore into a fresh system, even seeds
                // over the live one (its energy clock is mid-run).
                Serializer out;
                sys->saveState(out);
                if (seed % 2)
                    sys = std::make_unique<DramSystem>(tp, geo);
                Deserializer in(out.data());
                sys->restoreState(in);
                restored = true;
                expectBooks(t);
            }
        }
        expectBooks(t);
        EXPECT_GT(issued, 3000u);
        // The stream must have visited every state.
        for (size_t st = 0; st < 4; ++st) {
            uint64_t total = 0;
            for (const auto &r : tally)
                total += r[st];
            EXPECT_GT(total, 0u) << "power state " << st;
        }
    }
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
