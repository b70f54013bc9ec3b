/**
 * @file
 * Figure 4: execution profiles for mcf with and without the FS
 * scheduler, against non-memory-intensive and memory-intensive
 * co-runners. Under the baseline the two curves diverge (the
 * attacker can read the co-runners' intensity); under FS they are
 * bit-identical.
 */

#include <algorithm>
#include <iostream>

#include "bench_common.hh"
#include "core/noninterference.hh"

using namespace memsec;
using namespace memsec::bench;

namespace {

Config
profileConfig(const std::string &scheme, const std::string &corunner)
{
    Config c = baseConfig(8);
    c.merge(harness::schemeConfig(scheme));
    std::string wl = "mcf";
    for (int i = 0; i < 7; ++i)
        wl += "," + corunner;
    c.set("workload", wl);
    c.set("sim.warmup", 0);
    // Longer run and finer checkpoints than the other figures: the
    // whole point is the shape of the progress curve.
    c.set("sim.measure", 4 * c.getUint("sim.measure"));
    c.set("audit.core", 0);
    c.set("audit.progress_interval", 2000);
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const BenchOptions opts = BenchOptions::parse(argc, argv);
    std::cerr << "fig04: mcf execution profiles (4 runs, --jobs "
              << opts.jobs << ")\n";
    harness::Campaign campaign;
    const size_t bq = campaign.add("baseline+idle",
                                   profileConfig("baseline", "idle"));
    const size_t bn = campaign.add("baseline+hog",
                                   profileConfig("baseline", "hog"));
    const size_t fq =
        campaign.add("fs_rp+idle", profileConfig("fs_rp", "idle"));
    const size_t fn =
        campaign.add("fs_rp+hog", profileConfig("fs_rp", "hog"));
    const auto &summary = campaign.run(opts.campaignOptions());
    std::cerr << summary.toString() << "\n";
    const auto &baseQuiet = campaign.result(bq).timelines.at(0);
    const auto &baseNoisy = campaign.result(bn).timelines.at(0);
    const auto &fsQuiet = campaign.result(fq).timelines.at(0);
    const auto &fsNoisy = campaign.result(fn).timelines.at(0);

    if (!opts.csvOnly) {
        std::cout << "\n== Figure 4: execution profiles for mcf ==\n";
        std::cout << "columns: CPU cycles to complete N x 2k "
                     "instructions\n";
    }
    Table t;
    t.header({"x2k-instr", "base+idle", "base+hog", "FS+idle",
              "FS+hog"});
    const size_t n =
        std::min({baseQuiet.progress.size(), baseNoisy.progress.size(),
                  fsQuiet.progress.size(), fsNoisy.progress.size()});
    const size_t step = n > 40 ? n / 40 : 1;
    for (size_t i = 0; i < n; i += step) {
        t.row({std::to_string(i + 1),
               std::to_string(baseQuiet.progress[i]),
               std::to_string(baseNoisy.progress[i]),
               std::to_string(fsQuiet.progress[i]),
               std::to_string(fsNoisy.progress[i])});
    }
    const auto baseAudit =
        core::compareTimelines(baseQuiet, baseNoisy);
    const auto fsAudit = core::compareTimelines(fsQuiet, fsNoisy);
    if (opts.csvOnly) {
        t.printCsv(std::cout);
    } else {
        t.print(std::cout);
        std::cout << "\nbaseline curves diverge: "
                  << (baseAudit.identical ? "NO (unexpected!)" : "yes")
                  << " (max progress skew "
                  << Table::num(baseAudit.maxProgressSkewPct, 1)
                  << "%)\n";
        std::cout << "FS curves identical:     "
                  << (fsAudit.identical ? "yes (zero leakage)"
                                        : "NO (unexpected!): " +
                                              fsAudit.detail)
                  << "\n";
        std::cout << "\ncsv:\n";
        t.printCsv(std::cout);
    }
    return fsAudit.identical && !baseAudit.identical ? 0 : 1;
}
