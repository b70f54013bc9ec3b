/**
 * @file
 * Quickstart: build a Table-1 system, run the rank-partitioned
 * Fixed-Service controller against the non-secure baseline on one
 * workload, and print the headline metrics.
 *
 *   ./quickstart [workload] [measure-cycles]
 *
 * Workloads: mix1 mix2 CG SP astar lbm libquantum mcf milc zeusmp
 * GemsFDTD xalancbmk, any comma-separated list of profiles, or a
 * config file path via --config <file>.
 */

#include <iostream>
#include <string>

#include "harness/experiment.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace memsec;

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::string workload = "mcf";
    uint64_t measure = 120000;
    Config user;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--config" && i + 1 < argc) {
            user = Config::loadFile(argv[++i]);
        } else if (arg == "--help") {
            std::cout << "usage: quickstart [workload] "
                         "[measure-cycles] [--config file]\n";
            return 0;
        } else if (arg.find_first_not_of("0123456789") ==
                   std::string::npos) {
            measure = std::stoull(arg);
        } else {
            workload = arg;
        }
    }

    Config system = harness::defaultConfig();
    system.merge(user);
    const uint64_t channels = system.getUint("dram.channels");
    std::cout << "memsec quickstart: '" << workload
              << "' on the configured " << system.getUint("cores")
              << "-core / " << channels << "-channel / "
              << system.getUint("dram.ranks")
              << "-rank DDR3-1600 system\n\n";

    Table t;
    t.header({"scheme", "IPC sum", "read latency", "bus util",
              "dummy frac", "energy (uJ)"});
    for (const char *scheme : {"baseline", "fs_rp", "tp_bp"}) {
        Config cfg = harness::defaultConfig();
        cfg.merge(harness::schemeConfig(scheme));
        cfg.merge(user);
        cfg.set("workload", workload);
        if (!user.has("sim.measure"))
            cfg.set("sim.measure", measure);
        const auto r = harness::runExperiment(cfg);
        double ipc = 0;
        for (double v : r.ipc)
            ipc += v;
        t.row({scheme, Table::num(ipc, 3),
               Table::num(r.meanReadLatency, 1),
               Table::num(r.effectiveBandwidth, 3),
               Table::num(r.dummyFraction, 3),
               Table::num(r.energy.totalNj() / 1000.0, 1)});
    }
    t.print(std::cout);

    std::cout << "\nfs_rp is the paper's best secure design point: "
                 "zero information leakage at a bounded slowdown.\n";
    return 0;
}
