/**
 * @file
 * Randomised double-entry validation of the DRAM model.
 *
 * A random agent repeatedly picks an arbitrary command and issues it
 * whenever the fast-path bookkeeping (canIssue) admits it. The
 * independent TimingChecker audits every issued command, so any
 * disagreement between the two implementations of the JEDEC rules —
 * fast path too permissive — panics. A second pass asserts the fast
 * path is not overly conservative either: after long-enough idleness
 * every bank must accept an ACT again.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "dram/dram_system.hh"
#include "util/random.hh"

using namespace memsec;
using namespace memsec::dram;

namespace {

class DramFuzz : public ::testing::TestWithParam<uint64_t>
{
};

Command
randomCommand(Rng &rng, const Geometry &geo)
{
    static const CmdType kinds[] = {
        CmdType::Act,     CmdType::Act, CmdType::Rd,  CmdType::RdA,
        CmdType::Wr,      CmdType::WrA, CmdType::Pre, CmdType::Ref,
        CmdType::PdEnter, CmdType::PdExit,
    };
    Command c;
    c.type = kinds[rng.below(std::size(kinds))];
    c.rank = static_cast<unsigned>(rng.below(geo.ranksPerChannel));
    c.bank = static_cast<unsigned>(rng.below(geo.banksPerRank));
    c.row = static_cast<unsigned>(rng.below(64));
    return c;
}

} // namespace

TEST_P(DramFuzz, RandomLegalStreamNeverTripsTheAuditor)
{
    const Geometry geo;
    DramSystem sys(TimingParams::ddr3_1600_4gb(), geo);
    Rng rng(GetParam());

    uint64_t issued = 0;
    for (Cycle t = 0; t < 30000; ++t) {
        // A few attempts per cycle; at most one can issue (cmd bus).
        for (int attempt = 0; attempt < 4; ++attempt) {
            Command c = randomCommand(rng, geo);
            // Column commands must target the open row to be legal;
            // steer half the attempts at it.
            if (isColumn(c.type)) {
                const Bank &bk = sys.rank(c.rank).bank(c.bank);
                if (bk.isOpen() && rng.chance(0.8))
                    c.row = bk.openRow();
            }
            if (sys.canIssue(c, t)) {
                // Must not throw: fast path and auditor agree.
                ASSERT_NO_THROW(sys.issue(c, t)) << c.toString()
                                                 << " at " << t;
                ++issued;
                break;
            }
        }
        sys.tick(t);
    }
    // The stream must have made real progress.
    EXPECT_GT(issued, 2000u);
    EXPECT_EQ(sys.checker().observed(), issued);
    EXPECT_TRUE(sys.checker().violations().empty());
}

/**
 * Legality is written once: canIssue(cmd, t) must equal
 * cmdBusFree(t) && t >= earliestIssue(cmd) for every command class
 * and every t in a window ahead of the stream, and a finite
 * earliestIssue() must really be legal at that cycle. The states come
 * from the same random legal streams as above.
 */
TEST_P(DramFuzz, CanIssueAgreesWithEarliestIssue)
{
    const Geometry geo;
    DramSystem sys(TimingParams::ddr3_1600_4gb(), geo);
    Rng rng(GetParam() ^ 0xBEEF);

    uint64_t probes = 0;
    uint64_t finite = 0;
    for (Cycle now = 0; now < 6000; ++now) {
        Command c = randomCommand(rng, geo);
        if (isColumn(c.type)) {
            const Bank &bk = sys.rank(c.rank).bank(c.bank);
            if (bk.isOpen() && rng.chance(0.8))
                c.row = bk.openRow();
        }
        if (now % 16 == 0) {
            // Probe every class against the frozen state. A column
            // probe targets the open row when there is one, so the
            // timing windows (not just row state) get exercised.
            Command probe = c;
            for (const CmdType type :
                 {CmdType::Act, CmdType::Rd, CmdType::RdA, CmdType::Wr,
                  CmdType::WrA, CmdType::Pre, CmdType::Ref,
                  CmdType::PdEnter, CmdType::PdExit}) {
                probe.type = type;
                const Bank &bk = sys.rank(probe.rank).bank(probe.bank);
                if (isColumn(type) && bk.isOpen())
                    probe.row = bk.openRow();
                const Cycle from = sys.earliestIssue(probe);
                for (Cycle t = now; t <= now + 64; ++t) {
                    const bool expect =
                        sys.buses().cmdBusFree(t) && t >= from;
                    ASSERT_EQ(sys.canIssue(probe, t), expect)
                        << probe.toString() << " at " << t
                        << ", earliestIssue " << from;
                    ++probes;
                }
                if (from != kNoCycle) {
                    ++finite;
                    // Nothing has issued at `now` yet: the bus is
                    // free from here on.
                    const Cycle at = std::max(from, now);
                    ASSERT_TRUE(sys.canIssue(probe, at))
                        << probe.toString() << " at " << at;
                }
            }
        }
        if (sys.canIssue(c, now))
            sys.issue(c, now);
        sys.tick(now);
    }
    EXPECT_GT(probes, 100000u);
    EXPECT_GT(finite, 1000u);
    EXPECT_TRUE(sys.checker().violations().empty());
}

/**
 * Legality splits by scope: whenever the row state allows a bank
 * command, earliestIssue() is the max of its bank floor and its rank
 * floor, and the rank floor is kNoCycle exactly while the rank is
 * powered down. Checked for every bank command to every bank, over
 * the states of random legal streams (refresh and power-down
 * included).
 */
TEST_P(DramFuzz, ScopeFloorsComposeEarliestIssue)
{
    const Geometry geo;
    DramSystem sys(TimingParams::ddr3_1600_4gb(), geo);
    Rng rng(GetParam() ^ 0xF100);

    uint64_t checks = 0;
    uint64_t poweredDown = 0;
    uint64_t refreshing = 0;
    uint64_t rankBound = 0; ///< the rank floor above the bank floor
    for (Cycle now = 0; now < 6000; ++now) {
        if (now % 2 == 0) {
            for (unsigned r = 0; r < geo.ranksPerChannel; ++r) {
                const Rank &rk = sys.rank(r);
                for (unsigned b = 0; b < geo.banksPerRank; ++b) {
                    const Bank &bk = rk.bank(b);
                    for (const CmdType type :
                         {CmdType::Act, CmdType::Pre, CmdType::Rd,
                          CmdType::RdA, CmdType::Wr, CmdType::WrA}) {
                        const bool allowed =
                            type == CmdType::Act ? !bk.isOpen()
                                                 : bk.isOpen();
                        if (!allowed)
                            continue;
                        const Command cmd{type, r, b, bk.openRow(), 0,
                                          false};
                        const Cycle bank = sys.bankFloor(type, r, b);
                        const Cycle rank = sys.rankFloor(type, r);
                        ASSERT_EQ(std::max(bank, rank), sys.earliestIssue(cmd))
                            << cmd.toString() << " at " << now;
                        ASSERT_EQ(rank == kNoCycle, rk.isPoweredDown())
                            << cmd.toString() << " at " << now;
                        ++checks;
                        poweredDown += rk.isPoweredDown();
                        refreshing += rk.refreshEndsAt() > now;
                        rankBound += rank > bank && rank != kNoCycle;
                    }
                }
            }
        }
        Command c = randomCommand(rng, geo);
        if (isColumn(c.type)) {
            const Bank &bk = sys.rank(c.rank).bank(c.bank);
            if (bk.isOpen() && rng.chance(0.8))
                c.row = bk.openRow();
        }
        if (sys.canIssue(c, now))
            sys.issue(c, now);
        sys.tick(now);
    }
    EXPECT_GT(checks, 200000u);
    EXPECT_GT(poweredDown, 500u);
    EXPECT_GT(refreshing, 1000u);
    EXPECT_GT(rankBound, 100000u);
}

TEST_P(DramFuzz, FastPathNotOverlyConservative)
{
    const Geometry geo;
    DramSystem sys(TimingParams::ddr3_1600_4gb(), geo);
    Rng rng(GetParam() ^ 0xDEAD);

    Cycle t = 0;
    for (int round = 0; round < 200; ++round) {
        const unsigned rank =
            static_cast<unsigned>(rng.below(geo.ranksPerChannel));
        const unsigned bank =
            static_cast<unsigned>(rng.below(geo.banksPerRank));
        const unsigned row = static_cast<unsigned>(rng.below(1024));

        // A full read transaction must always be issuable within a
        // bounded wait (tRFC is the longest stall in the system).
        Command act{CmdType::Act, rank, bank, row, 0, false};
        Cycle waited = 0;
        while (!sys.canIssue(act, t)) {
            ++t;
            ASSERT_LT(++waited, 600u) << "ACT starved";
        }
        sys.issue(act, t);

        Command rd{CmdType::RdA, rank, bank, row, 0, false};
        waited = 0;
        while (!sys.canIssue(rd, ++t))
            ASSERT_LT(++waited, 600u) << "RDA starved";
        sys.issue(rd, t);
        t += rng.below(8);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DramFuzz,
                         ::testing::Values(1ull, 7ull, 42ull, 1337ull,
                                           0xABCDEFull));
