/**
 * @file
 * Interactive pipeline explorer: feed the solver arbitrary DRAM
 * timing parameters and see the FS pipeline it derives — minimum
 * slot spacing per partitioning level, interval lengths, peak
 * utilisation, and an ASCII rendering of the command/data timeline
 * (the paper's Figure 1 for your part).
 *
 *   ./pipeline_explorer                        # paper's DDR3-1600
 *   ./pipeline_explorer --part ddr4            # built-in preset
 *   ./pipeline_explorer --set rcd=14 --set cas=14 ...
 *   ./pipeline_explorer --threads 16
 */

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/pipeline_solver.hh"
#include "core/slot_schedule.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace memsec;
using namespace memsec::core;

namespace {

void
setParam(dram::TimingParams &tp, const std::string &kv)
{
    const auto eq = kv.find('=');
    fatal_if(eq == std::string::npos, "--set expects name=value");
    const std::string key = kv.substr(0, eq);
    const unsigned val =
        static_cast<unsigned>(std::stoul(kv.substr(eq + 1)));
    if (key == "rc") tp.rc = val;
    else if (key == "rcd") tp.rcd = val;
    else if (key == "ras") tp.ras = val;
    else if (key == "rp") tp.rp = val;
    else if (key == "rtp") tp.rtp = val;
    else if (key == "wr") tp.wr = val;
    else if (key == "rrd") tp.rrd = val;
    else if (key == "faw") tp.faw = val;
    else if (key == "cas") tp.cas = val;
    else if (key == "cwd") tp.cwd = val;
    else if (key == "burst") tp.burst = val;
    else if (key == "ccd") tp.ccd = val;
    else if (key == "wtr") tp.wtr = val;
    else if (key == "rtrs") tp.rtrs = val;
    else fatal("unknown timing parameter '{}'", key);
}

void
draw(const PipelineSolution &sol, unsigned threads,
     const dram::TimingParams &tp)
{
    const SlotTemplate frame(sol, std::vector<unsigned>(threads, 1), 1,
                             tp);
    std::cout << "\ntimeline for " << threads
              << " slots (A=ACT, C=COL-RD, W=COL-WR, d=data):\n";
    std::vector<bool> writes;
    for (unsigned s = 0; s < threads; ++s)
        writes.push_back(s % 3 == 2); // a representative mix
    const Cycle span = frame.dataAt(threads - 1, true) + 2 * tp.burst;
    std::cout << renderTimeline(frame, writes, span, 'T');
}

} // namespace

int
main(int argc, char **argv)
{
    dram::TimingParams tp = dram::TimingParams::ddr3_1600_4gb();
    unsigned threads = 8;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--part") && i + 1 < argc) {
            const std::string part = argv[++i];
            if (part == "ddr3-1600")
                tp = dram::TimingParams::ddr3_1600_4gb();
            else if (part == "ddr3-2133")
                tp = dram::TimingParams::ddr3_2133();
            else if (part == "ddr4")
                tp = dram::TimingParams::ddr4_2400();
            else
                fatal("unknown part '{}'", part);
        } else if (!std::strcmp(argv[i], "--set") && i + 1 < argc) {
            setParam(tp, argv[++i]);
        } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
            threads = static_cast<unsigned>(std::stoul(argv[++i]));
        } else {
            std::cout << "usage: pipeline_explorer [--part "
                         "ddr3-1600|ddr3-2133|ddr4] [--set k=v]... "
                         "[--threads N]\n";
            return !std::strcmp(argv[i], "--help") ? 0 : 1;
        }
    }
    tp.validate();

    std::cout << "part: " << tp.toString() << "\n";
    std::cout << "derived: rd2wr=" << tp.rd2wr()
              << " wr2rd=" << tp.wr2rd()
              << " same-bank reuse=" << tp.actToActWrA() << "\n\n";

    PipelineSolver solver(tp);
    Table t;
    t.header({"partitioning", "best reference", "l",
              "Q(" + std::to_string(threads) + ")", "peak util"});
    PipelineSolution rankSol;
    for (PartitionLevel level :
         {PartitionLevel::Rank, PartitionLevel::Bank,
          PartitionLevel::None}) {
        const auto sol = solver.solveBest(level);
        if (level == PartitionLevel::Rank)
            rankSol = sol;
        t.row({partitionLevelName(level),
               sol.feasible ? periodicRefName(sol.ref) : "-",
               sol.feasible ? std::to_string(sol.l) : "none",
               sol.feasible ? std::to_string(sol.intervalQ(threads))
                            : "-",
               sol.feasible
                   ? Table::num(sol.peakUtilisation(tp.burst), 3)
                   : "-"});
    }
    t.print(std::cout);

    const auto re = solver.solveReordered(threads);
    std::cout << "\nreordered bank partitioning: spacing=" << re.spacing
              << " endGap=" << re.endGap << " Q=" << re.q
              << " peak util=" << Table::num(re.peakUtilisation, 3)
              << "\nalternation factor (no partitioning): "
              << solver.alternationFactor() << "\n";

    if (rankSol.feasible)
        draw(rankSol, threads, tp);
    return 0;
}
