/**
 * @file
 * Sections 3-4 analytical results: the pipeline solver's minimum slot
 * spacings for every (periodic reference x partitioning) combination,
 * the reordered-interval solution, and the triple-alternation factor
 * — for the paper's DDR3-1600 part and two generalisation parts.
 * Also renders the Figure 1 command/data timeline for eight slots and
 * model-checks that frame. Exits 1 if the static verifier disagrees
 * with the solver on any row or finds a conflict in the frame.
 *
 * Pure analytics: runs no simulations, so --jobs has no effect; the
 * flags are accepted for uniformity and --csv emits just the tables.
 */

#include <iostream>
#include <vector>

#include "analysis/schedule_verifier.hh"
#include "bench_common.hh"
#include "core/pipeline_solver.hh"
#include "core/slot_schedule.hh"
#include "util/table.hh"

using namespace memsec;
using namespace memsec::core;
using memsec::bench::BenchOptions;
using memsec::bench::printTable;

namespace {

/** Prints one part's table; false if any row disagrees. */
bool
solveTable(const char *part, const dram::TimingParams &tp,
           const BenchOptions &opts)
{
    PipelineSolver solver(tp);
    Table t;
    // "static l" is the schedule verifier's independent hyperperiod
    // model-check; it must agree with the solver's inequality l on
    // every row (the tier-1 suite enforces this, the table shows it).
    t.header({"partitioning", "reference", "l", "static l", "agree",
              "Q(8 threads)", "peak util"});
    bool allAgree = true;
    for (PartitionLevel level :
         {PartitionLevel::Rank, PartitionLevel::Bank,
          PartitionLevel::None}) {
        for (PeriodicRef ref :
             {PeriodicRef::Data, PeriodicRef::Ras, PeriodicRef::Cas}) {
            const auto sol = solver.solve(ref, level);
            analysis::VerifierConfig vcfg;
            vcfg.ref = ref;
            vcfg.level = level;
            const unsigned lv =
                analysis::ScheduleVerifier(tp, vcfg).minimalFeasible();
            const bool agree = sol.feasible && lv == sol.l;
            allAgree = allAgree && agree;
            t.row({partitionLevelName(level), periodicRefName(ref),
                   sol.feasible ? std::to_string(sol.l) : "-",
                   lv ? std::to_string(lv) : "-",
                   agree ? "yes" : "NO",
                   sol.feasible ? std::to_string(sol.intervalQ(8))
                                : "-",
                   sol.feasible
                       ? Table::num(sol.peakUtilisation(tp.burst), 3)
                       : "-"});
        }
    }
    printTable(std::string(part) + " (" + tp.toString() + ")", t,
               opts);
    if (opts.csvOnly)
        return allAgree;

    std::cout << "static verifier agreement: "
              << (allAgree ? "all 9 combinations" : "MISMATCH")
              << "\n";
    const auto re = solver.solveReordered(8);
    std::cout << "reordered bank partitioning: spacing=" << re.spacing
              << " endGap=" << re.endGap << " Q=" << re.q
              << " peak util=" << Table::num(re.peakUtilisation, 3)
              << "\n";
    std::cout << "triple-alternation factor: "
              << solver.alternationFactor() << "\n";
    return allAgree;
}

/** Renders Figure 1 and model-checks its frame; false on conflict. */
bool
drawFigure1(const dram::TimingParams &tp)
{
    // Eight slots, reads and writes mixed as in the paper's example:
    // RD RD WR RD RD RD WR WR (ranks R0..R7).
    PipelineSolver solver(tp);
    const auto sol = solver.solveBest(PartitionLevel::Rank);
    const SlotTemplate frame(sol, std::vector<unsigned>(8, 1), 1, tp);
    const std::vector<bool> writes = {false, false, true, false,
                                      false, false, true, true};

    std::cout << "\n-- Figure 1: rank-partitioned pipeline, l = "
              << sol.l << " (A=ACT, C=COL-RD, W=COL-WR, "
              << "d=data) --\n";
    const Cycle span = frame.dataAt(7, writes[7]) + tp.burst + 1;
    std::cout << renderTimeline(frame, writes, span, 'R');
    const analysis::VerifyResult check =
        analysis::ScheduleVerifier(tp, analysis::VerifierConfig{})
            .verify(frame);
    std::cout << "conflict check: " << check.summary() << "\n";
    return check.ok;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts = BenchOptions::parse(argc, argv);
    if (!opts.csvOnly) {
        std::cout << "== Pipeline solver: the paper's derived "
                     "constants ==\n";
        std::cout << "expected for DDR3-1600: rank/data=7, "
                     "rank/RAS=12, rank/CAS=12,\n  bank/RAS=15, "
                     "bank/data=21, none/RAS=43; reordered Q=63; "
                     "alternation=3\n";
    }
    bool ok = solveTable("DDR3-1600 4Gb (paper Table 1)",
                         dram::TimingParams::ddr3_1600_4gb(), opts);
    ok &= solveTable("DDR3-2133 (generalisation)",
                     dram::TimingParams::ddr3_2133(), opts);
    ok &= solveTable("DDR4-2400 (generalisation)",
                     dram::TimingParams::ddr4_2400(), opts);
    if (!opts.csvOnly)
        ok &= drawFigure1(dram::TimingParams::ddr3_1600_4gb());
    if (!ok) {
        std::cerr << "tab_solver: the static verifier disagrees with "
                     "the solver or found a conflict\n";
        return 1;
    }
    return 0;
}
