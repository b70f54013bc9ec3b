/**
 * @file
 * The paper's mathematical results as executable assertions: every
 * derived pipeline constant in Sections 3 and 4 must fall out of the
 * general solver, and every solution must be conflict-free when
 * expanded into a concrete schedule.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/schedule_verifier.hh"
#include "core/pipeline_solver.hh"
#include "core/slot_schedule.hh"

using namespace memsec;
using core::PartitionLevel;
using core::PeriodicRef;
using core::PipelineSolver;

namespace {

PipelineSolver
paperSolver()
{
    return PipelineSolver(dram::TimingParams::ddr3_1600_4gb());
}

} // namespace

TEST(PipelineSolver, RankPartitionFixedDataGivesSeven)
{
    // Section 3.1: the minimum l satisfying Equations 1a-1f is 7.
    const auto sol = paperSolver().solve(PeriodicRef::Data,
                                         PartitionLevel::Rank);
    ASSERT_TRUE(sol.feasible);
    EXPECT_EQ(sol.l, 7u);
}

TEST(PipelineSolver, RankPartitionSixIsInfeasible)
{
    // l = 6 violates equation 1a/1f ((k - k')l != 6).
    std::string why;
    EXPECT_FALSE(paperSolver().feasible(PeriodicRef::Data,
                                        PartitionLevel::Rank, 6, &why));
    EXPECT_FALSE(why.empty());
}

TEST(PipelineSolver, RankPartitionForbiddenGaps)
{
    // The six non-trivial inequalities forbid gaps {5, 6, 11, 17}.
    const PipelineSolver s = paperSolver();
    for (unsigned l : {5u, 6u, 11u, 17u}) {
        EXPECT_FALSE(
            s.feasible(PeriodicRef::Data, PartitionLevel::Rank, l))
            << "l=" << l << " should collide on the command bus";
    }
}

TEST(PipelineSolver, RankPartitionFixedRasGivesTwelve)
{
    // Section 3.1: "we would have arrived at an l = 12".
    const auto sol = paperSolver().solve(PeriodicRef::Ras,
                                         PartitionLevel::Rank);
    ASSERT_TRUE(sol.feasible);
    EXPECT_EQ(sol.l, 12u);
}

TEST(PipelineSolver, RankPartitionFixedCasGivesTwelve)
{
    const auto sol = paperSolver().solve(PeriodicRef::Cas,
                                         PartitionLevel::Rank);
    ASSERT_TRUE(sol.feasible);
    EXPECT_EQ(sol.l, 12u);
}

TEST(PipelineSolver, BestRankPipelineIsFixedData)
{
    const auto sol = paperSolver().solveBest(PartitionLevel::Rank);
    ASSERT_TRUE(sol.feasible);
    EXPECT_EQ(sol.l, 7u);
    EXPECT_EQ(sol.ref, PeriodicRef::Data);
    // Peak utilisation tBURST / l = 4/7 = 57%.
    EXPECT_NEAR(sol.peakUtilisation(4), 0.571, 0.001);
}

TEST(PipelineSolver, BankPartitionFixedRasGivesFifteen)
{
    // Section 4.2: fixed periodic RAS yields l = 15 (tWTR-bound).
    const auto sol = paperSolver().solve(PeriodicRef::Ras,
                                         PartitionLevel::Bank);
    ASSERT_TRUE(sol.feasible);
    EXPECT_EQ(sol.l, 15u);
}

TEST(PipelineSolver, BankPartitionFixedDataNeedsTwentyOne)
{
    // Section 4.2, Equation 4b: l >= 21 with fixed periodic data.
    const auto sol = paperSolver().solve(PeriodicRef::Data,
                                         PartitionLevel::Bank);
    ASSERT_TRUE(sol.feasible);
    EXPECT_EQ(sol.l, 21u);
}

TEST(PipelineSolver, BestBankPipelineQAndUtilisation)
{
    const auto sol = paperSolver().solveBest(PartitionLevel::Bank);
    ASSERT_TRUE(sol.feasible);
    EXPECT_EQ(sol.l, 15u);
    // Q = 15 * 8 = 120 cycles; peak bus utilisation ~27%.
    EXPECT_EQ(sol.intervalQ(8), 120u);
    EXPECT_NEAR(sol.peakUtilisation(4), 0.267, 0.001);
}

TEST(PipelineSolver, NoPartitionGivesFortyThree)
{
    // Section 4.3: write-then-read to different rows of one bank
    // binds the unpartitioned pipeline at l = 43.
    const auto sol = paperSolver().solveBest(PartitionLevel::None);
    ASSERT_TRUE(sol.feasible);
    EXPECT_EQ(sol.l, 43u);
    EXPECT_EQ(sol.ref, PeriodicRef::Ras);
    // Q = 344 for 8 threads, ~9% utilisation.
    EXPECT_EQ(sol.intervalQ(8), 344u);
    EXPECT_NEAR(sol.peakUtilisation(4), 0.093, 0.001);
}

TEST(PipelineSolver, SameBankReuseConstantIsFortyThree)
{
    const auto tp = dram::TimingParams::ddr3_1600_4gb();
    // tRCD + tCWD + tBURST + tWR + tRP = 11+5+4+12+11.
    EXPECT_EQ(tp.actToActWrA(), 43u);
    EXPECT_EQ(tp.actToActRdA(), 39u); // == tRC for this part
}

TEST(PipelineSolver, ReorderedBankPartitionMatchesPaper)
{
    // Section 4.2: spacing 6, Q = 63 for 8 threads, ~51% utilisation.
    const auto r = paperSolver().solveReordered(8);
    EXPECT_EQ(r.spacing, 6u);
    EXPECT_EQ(r.endGap, 21u);
    EXPECT_EQ(r.q, 63u);
    EXPECT_NEAR(r.peakUtilisation, 0.508, 0.001);
}

TEST(PipelineSolver, ReorderedScalesWithThreads)
{
    const PipelineSolver s = paperSolver();
    for (unsigned n : {1u, 2u, 4u, 16u}) {
        const auto r = s.solveReordered(n);
        EXPECT_EQ(r.q, (n - 1) * r.spacing + r.endGap);
        EXPECT_GT(r.peakUtilisation, 0.0);
    }
}

namespace {

/** One transaction of an unrolled reordered interval. */
struct UnrolledOp
{
    long act = 0;
    long cas = 0;
    long data = 0;
    bool write = false;
};

/**
 * Checks an unrolled command stream against the part's bus and
 * rank-level rules, straight from TimingParams; every op may target
 * one rank. Returns the first violation, or "".
 */
std::string
unrolledViolation(const std::vector<UnrolledOp> &ops,
                  const dram::TimingParams &tp)
{
    std::vector<long> cmds, acts, data;
    for (const UnrolledOp &o : ops) {
        cmds.insert(cmds.end(), {o.act, o.cas});
        acts.push_back(o.act);
        data.push_back(o.data);
    }
    std::sort(cmds.begin(), cmds.end());
    std::sort(acts.begin(), acts.end());
    std::sort(data.begin(), data.end());
    for (size_t i = 1; i < cmds.size(); ++i) {
        if (cmds[i] == cmds[i - 1])
            return "cmd-bus at " + std::to_string(cmds[i]);
    }
    for (size_t i = 1; i < data.size(); ++i) {
        if (data[i] - data[i - 1] < static_cast<long>(tp.burst + tp.rtrs))
            return "data-bus at " + std::to_string(data[i]);
    }
    for (size_t i = 1; i < acts.size(); ++i) {
        if (acts[i] - acts[i - 1] < static_cast<long>(tp.rrd))
            return "tRRD at " + std::to_string(acts[i]);
        if (i >= 4 && acts[i] - acts[i - 4] < static_cast<long>(tp.faw))
            return "tFAW at " + std::to_string(acts[i]);
    }
    for (const UnrolledOp &a : ops) {
        for (const UnrolledOp &b : ops) {
            if (b.cas <= a.cas)
                continue;
            const long need = a.write == b.write
                                  ? tp.ccd
                                  : (a.write ? tp.wr2rd() : tp.rd2wr());
            if (b.cas - a.cas < need)
                return std::string(a.write ? "W" : "R") + "->" +
                       (b.write ? "W" : "R") + " CAS at " +
                       std::to_string(b.cas);
        }
    }
    return "";
}

} // namespace

TEST(PipelineSolver, ReorderedTemplateLegalAcrossIntervals)
{
    // Reads first, then writes, with the pinned spacing and end gap:
    // every write count in each of three consecutive intervals.
    struct Part
    {
        const char *name;
        dram::TimingParams (*make)();
        unsigned spacing;       ///< for N below wideFrom
        unsigned wideSpacing;   ///< for N >= wideFrom
        unsigned wideFrom;
        unsigned endGap;
    };
    // DDR3-2133 widens at N = 4, where tFAW first binds in-interval.
    const Part parts[] = {
        {"ddr3_1600", &dram::TimingParams::ddr3_1600_4gb, 6, 6, 1, 21},
        {"ddr3_2133", &dram::TimingParams::ddr3_2133, 6, 8, 4, 26},
        {"ddr4_2400", &dram::TimingParams::ddr4_2400, 7, 7, 1, 29},
    };
    constexpr unsigned kIntervals = 3;
    for (const Part &part : parts) {
        const dram::TimingParams tp = part.make();
        const PipelineSolver solver(tp);
        const core::SlotOffsets off = solver.offsets(PeriodicRef::Data);
        for (unsigned n = 1; n <= 12; ++n) {
            const auto r = solver.solveReordered(n);
            EXPECT_EQ(r.spacing,
                      n < part.wideFrom ? part.spacing : part.wideSpacing)
                << part.name << " N=" << n;
            EXPECT_EQ(r.endGap, part.endGap) << part.name << " N=" << n;

            unsigned writes[kIntervals] = {};
            for (bool more = true; more;) {
                std::vector<UnrolledOp> ops;
                for (unsigned k = 0; k < kIntervals; ++k) {
                    for (unsigned i = 0; i < n; ++i) {
                        UnrolledOp o;
                        o.write = i >= n - writes[k];
                        o.data = static_cast<long>(k) * r.q +
                                 static_cast<long>(i) * r.spacing;
                        o.act = o.data + (o.write ? off.actWrite
                                                  : off.actRead);
                        o.cas = o.data + (o.write ? off.casWrite
                                                  : off.casRead);
                        ops.push_back(o);
                    }
                }
                EXPECT_EQ(unrolledViolation(ops, tp), "")
                    << part.name << " N=" << n << " writes=" << writes[0]
                    << "," << writes[1] << "," << writes[2];
                // Next write-count combination, odometer style.
                more = false;
                for (unsigned &w : writes) {
                    if (w < n) {
                        ++w;
                        more = true;
                        break;
                    }
                    w = 0;
                }
            }
        }
    }
}

TEST(PipelineSolver, TripleAlternationFactorIsThree)
{
    // ceil(43 / 15) = 3: the paper's triple alternation.
    EXPECT_EQ(paperSolver().alternationFactor(), 3u);
}

TEST(PipelineSolver, OffsetsMatchPaperTimingDiagram)
{
    // Figure 1: Column-Rd 11 cycles before data, Column-Wr 5 before,
    // Activates tRCD = 11 before their column commands.
    const auto off = paperSolver().offsets(PeriodicRef::Data);
    EXPECT_EQ(off.casRead, -11);
    EXPECT_EQ(off.casWrite, -5);
    EXPECT_EQ(off.actRead, -22);
    EXPECT_EQ(off.actWrite, -16);
    EXPECT_EQ(off.dataRead, 0);
    EXPECT_EQ(off.dataWrite, 0);
}

TEST(PipelineSolver, InfeasibleWhenMaxLTooSmall)
{
    const auto sol =
        paperSolver().solve(PeriodicRef::Ras, PartitionLevel::None, 10);
    EXPECT_FALSE(sol.feasible);
}

// ---- Generalisation: the solver must produce valid (conflict-free)
// pipelines for other DRAM parts, not just the paper's DDR3-1600. ----

struct SolverSweepParam
{
    const char *partName;
    dram::TimingParams (*make)();
    PeriodicRef ref;
    PartitionLevel level;
};

class SolverSweep : public ::testing::TestWithParam<SolverSweepParam>
{
};

TEST_P(SolverSweep, SolutionExistsAndScheduleIsConflictFree)
{
    const auto &p = GetParam();
    const dram::TimingParams tp = p.make();
    const PipelineSolver solver(tp);
    const auto sol = solver.solve(p.ref, p.level, 512);
    ASSERT_TRUE(sol.feasible)
        << p.partName << " " << core::periodicRefName(p.ref) << " "
        << core::partitionLevelName(p.level);

    // Model-check the 8-domain frame over a whole hyperperiod under
    // every read/write mix.
    const core::SlotTemplate frame(sol, std::vector<unsigned>(8, 1), 1,
                                   tp);
    const analysis::VerifyResult r =
        analysis::ScheduleVerifier(tp, analysis::VerifierConfig{})
            .verify(frame);
    EXPECT_TRUE(r.ok) << p.partName << " " << r.summary();
}

INSTANTIATE_TEST_SUITE_P(
    AllPartsRefsLevels, SolverSweep,
    ::testing::Values(
        SolverSweepParam{"ddr3_1600", &dram::TimingParams::ddr3_1600_4gb,
                         PeriodicRef::Data, PartitionLevel::Rank},
        SolverSweepParam{"ddr3_1600", &dram::TimingParams::ddr3_1600_4gb,
                         PeriodicRef::Ras, PartitionLevel::Rank},
        SolverSweepParam{"ddr3_1600", &dram::TimingParams::ddr3_1600_4gb,
                         PeriodicRef::Cas, PartitionLevel::Rank},
        SolverSweepParam{"ddr3_1600", &dram::TimingParams::ddr3_1600_4gb,
                         PeriodicRef::Data, PartitionLevel::Bank},
        SolverSweepParam{"ddr3_1600", &dram::TimingParams::ddr3_1600_4gb,
                         PeriodicRef::Ras, PartitionLevel::Bank},
        SolverSweepParam{"ddr3_1600", &dram::TimingParams::ddr3_1600_4gb,
                         PeriodicRef::Ras, PartitionLevel::None},
        SolverSweepParam{"ddr3_2133", &dram::TimingParams::ddr3_2133,
                         PeriodicRef::Data, PartitionLevel::Rank},
        SolverSweepParam{"ddr3_2133", &dram::TimingParams::ddr3_2133,
                         PeriodicRef::Ras, PartitionLevel::Bank},
        SolverSweepParam{"ddr3_2133", &dram::TimingParams::ddr3_2133,
                         PeriodicRef::Ras, PartitionLevel::None},
        SolverSweepParam{"ddr4_2400", &dram::TimingParams::ddr4_2400,
                         PeriodicRef::Data, PartitionLevel::Rank},
        SolverSweepParam{"ddr4_2400", &dram::TimingParams::ddr4_2400,
                         PeriodicRef::Ras, PartitionLevel::Bank},
        SolverSweepParam{"ddr4_2400", &dram::TimingParams::ddr4_2400,
                         PeriodicRef::Ras, PartitionLevel::None}));

// ---- Property: the reported minimum really is minimal — every
// smaller l is infeasible. ----

class MinimalitySweep
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(MinimalitySweep, NoSmallerFeasibleL)
{
    const auto ref = static_cast<PeriodicRef>(GetParam().first);
    const auto level = static_cast<PartitionLevel>(GetParam().second);
    const PipelineSolver s = paperSolver();
    const auto sol = s.solve(ref, level);
    ASSERT_TRUE(sol.feasible);
    for (unsigned l = 1; l < sol.l; ++l)
        EXPECT_FALSE(s.feasible(ref, level, l)) << "l=" << l;
}

INSTANTIATE_TEST_SUITE_P(
    AllRefLevelCombos, MinimalitySweep,
    ::testing::Values(std::make_pair(0, 0), std::make_pair(1, 0),
                      std::make_pair(2, 0), std::make_pair(0, 1),
                      std::make_pair(1, 1), std::make_pair(2, 1),
                      std::make_pair(0, 2), std::make_pair(1, 2),
                      std::make_pair(2, 2)));
