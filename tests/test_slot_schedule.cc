#include <gtest/gtest.h>

#include <vector>

#include "core/slot_schedule.hh"

using namespace memsec;
using namespace memsec::core;

namespace {

const dram::TimingParams tp = dram::TimingParams::ddr3_1600_4gb();

std::vector<unsigned>
equal(unsigned n)
{
    return std::vector<unsigned>(n, 1);
}

SlotTemplate
rankTemplate(unsigned domains = 8)
{
    PipelineSolver solver(tp);
    return SlotTemplate(solver.solveBest(PartitionLevel::Rank),
                        equal(domains), 1, tp);
}

SlotTemplate
tripleTemplate(unsigned domains)
{
    PipelineSolver solver(tp);
    return SlotTemplate(solver.solveBest(PartitionLevel::Bank),
                        equal(domains), solver.alternationFactor(), tp);
}

} // namespace

TEST(SlotTemplate, LeadCoversEarliestCommand)
{
    const SlotTemplate s = rankTemplate();
    // Fixed periodic data: the read ACT leads the burst by 22 cycles.
    EXPECT_EQ(s.lead(), 22u);
    EXPECT_EQ(SlotTemplate::leadOf(s.offsets()), 22u);
    EXPECT_EQ(s.frameLength(), 56u); // Q = 7 * 8
}

TEST(SlotTemplate, RoundRobinDomains)
{
    const SlotTemplate s = rankTemplate();
    EXPECT_EQ(s.slotsPerFrame(), 8u);
    for (uint64_t slot = 0; slot < 32; ++slot)
        EXPECT_EQ(s.domainOf(slot), slot % 8);
}

TEST(SlotTemplate, PlanMatchesFigureOne)
{
    const SlotTemplate s = rankTemplate();
    // Slot 0 reference (data) at lead; commands never before cycle 0.
    EXPECT_EQ(s.refCycle(0), 22u);
    EXPECT_EQ(s.dataAt(0, false), 22u);
    EXPECT_EQ(s.actAt(0, false), 0u);
    EXPECT_EQ(s.casAt(0, false), 11u);

    EXPECT_EQ(s.dataAt(1, true), 29u);
    EXPECT_EQ(s.actAt(1, true), 13u);
    EXPECT_EQ(s.casAt(1, true), 24u);
    EXPECT_EQ(s.at(1, dram::CmdEdge::Cas, true), 24u);
}

TEST(SlotTemplate, ConsecutiveDataSlotsSevenApart)
{
    const SlotTemplate s = rankTemplate();
    for (uint64_t slot = 0; slot < 16; ++slot)
        EXPECT_EQ(s.dataAt(slot + 1, false) - s.dataAt(slot, false), 7u);
}

TEST(SlotTemplate, WeightsInterleaveRoundRobin)
{
    // SLA weights 2,1,1,1: every domain once, then domain 0 again.
    PipelineSolver solver(tp);
    const SlotTemplate s(solver.solveBest(PartitionLevel::Rank),
                         {2, 1, 1, 1}, 1, tp);
    const std::vector<DomainId> expect = {0, 1, 2, 3, 0};
    ASSERT_EQ(s.slotsPerFrame(), expect.size());
    for (uint64_t slot = 0; slot < 2 * expect.size(); ++slot)
        EXPECT_EQ(s.domainOf(slot), expect[slot % expect.size()]) << slot;
    EXPECT_EQ(s.numDomains(), 4u);

    // A zero-weight domain gets no slot (one channel's share of a
    // multi-channel run).
    const SlotTemplate half(solver.solveBest(PartitionLevel::Rank),
                            {1, 0, 1, 0}, 1, tp);
    EXPECT_EQ(half.slotsPerFrame(), 2u);
    EXPECT_EQ(half.domainOf(0), 0u);
    EXPECT_EQ(half.domainOf(1), 2u);
}

TEST(SlotTemplate, PhantomPadKeepsGroupRotationComplete)
{
    // 9 domains x 3 groups: 9 % 3 == 0, so a phantom slot pads the
    // frame to 10 and every domain visits every group.
    const SlotTemplate s = tripleTemplate(9);
    EXPECT_EQ(s.groups(), 3u);
    ASSERT_EQ(s.slotsPerFrame(), 10u);
    EXPECT_EQ(s.domainOf(9), SlotTemplate::kPhantom);
    EXPECT_EQ(s.frameLength(), 10u * 15u);
    for (DomainId d = 0; d < 9; ++d) {
        std::vector<bool> seen(3, false);
        for (uint64_t f = 0; f < 3; ++f)
            seen[s.groupOf(f * 10 + d)] = true;
        EXPECT_EQ(seen, std::vector<bool>(3, true)) << d;
    }
    // 8 domains need no pad.
    EXPECT_EQ(tripleTemplate(8).slotsPerFrame(), 8u);
    // Slot s admits exactly the banks of its group.
    EXPECT_TRUE(s.inGroup(4, 7));
    EXPECT_FALSE(s.inGroup(4, 6));
    EXPECT_TRUE(rankTemplate().inGroup(4, 6));
}

TEST(SlotTemplate, RefreshMarginAndBlackout)
{
    PipelineSolver solver(tp);
    const SlotTemplate s(solver.solveBest(PartitionLevel::Rank), equal(8),
                         1, tp, 8);
    ASSERT_TRUE(s.refresh());
    EXPECT_EQ(s.refreshMargin(), tp.actToActWrA() + 22u);
    EXPECT_EQ(s.refreshPause(), 8u + tp.rfc);
    // The last slot whose reference clears the margin before epoch e.
    const Cycle e = tp.refi;
    const uint64_t last = (e - s.refreshMargin() - s.lead()) / 7;
    EXPECT_FALSE(s.blackedOut(last, e));
    EXPECT_TRUE(s.blackedOut(last + 1, e));
    EXPECT_FALSE(rankTemplate().refresh());
}

TEST(SlotTemplate, RankPartSameBankHazardBoundary)
{
    // Section 7: with <= 6 threads/ranks a thread's back-to-back
    // same-rank transactions can violate the 43-cycle reuse bound.
    for (unsigned n = 1; n <= 6; ++n)
        EXPECT_TRUE(rankTemplate(n).sameBankHazard()) << n;
    for (unsigned n = 7; n <= 16; ++n)
        EXPECT_FALSE(rankTemplate(n).sameBankHazard()) << n;
    // Weight 2 puts domain 0 back to back across the frame edge.
    PipelineSolver solver(tp);
    EXPECT_TRUE(SlotTemplate(solver.solveBest(PartitionLevel::Rank),
                             {2, 1, 1, 1, 1, 1, 1, 1}, 1, tp)
                    .sameBankHazard());
    // Triple alternation: a domain's same-group slots are three
    // frames apart, far past the reuse bound.
    EXPECT_FALSE(tripleTemplate(8).sameBankHazard());
}

TEST(SlotTemplate, RendersFigureOneStrip)
{
    const SlotTemplate s = rankTemplate();
    const std::string strip =
        renderTimeline(s, {false, true}, s.dataAt(1, true) + 5, 'R');
    EXPECT_EQ(strip, "R0 RD A..........C..........dddd........\n"
                     "R1 WR .............A..........W....dddd.\n");
}

TEST(SlotTemplate, InfeasibleSolutionFatal)
{
    PipelineSolution bad;
    bad.feasible = false;
    EXPECT_EXIT(SlotTemplate(bad, equal(8), 1, tp),
                ::testing::ExitedWithCode(1), "infeasible");
}
