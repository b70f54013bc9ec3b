#include "bench_common.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "cpu/workload.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace memsec::bench {

RunScale
RunScale::fromEnv()
{
    RunScale s;
    if (const char *m = std::getenv("MEMSEC_MEASURE"))
        s.measure = std::strtoull(m, nullptr, 10);
    if (const char *w = std::getenv("MEMSEC_WARMUP"))
        s.warmup = std::strtoull(w, nullptr, 10);
    if (std::getenv("MEMSEC_QUICK")) {
        s.measure /= 4;
        s.warmup /= 4;
    }
    return s;
}

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    BenchOptions o;
    o.jobs = ThreadPool::defaultWorkers();
    if (const char *j = std::getenv("MEMSEC_JOBS")) {
        const unsigned long v = std::strtoul(j, nullptr, 10);
        o.jobs = v > 0 ? static_cast<unsigned>(v) : 1;
    }
    auto parseUnsigned = [](const char *value, const char *flag) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(value, &end, 10);
        fatal_if(end == value || *end != '\0' || v == 0,
                 "{} needs a positive integer, got '{}'", flag, value);
        return static_cast<unsigned>(v);
    };
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--serial") == 0) {
            o.jobs = 1;
        } else if (std::strcmp(a, "--jobs") == 0) {
            fatal_if(i + 1 >= argc, "--jobs needs a value");
            o.jobs = parseUnsigned(argv[++i], "--jobs");
        } else if (std::strncmp(a, "--jobs=", 7) == 0) {
            o.jobs = parseUnsigned(a + 7, "--jobs");
        } else if (std::strcmp(a, "--shards") == 0) {
            fatal_if(i + 1 >= argc, "--shards needs a value");
            o.shards = parseUnsigned(argv[++i], "--shards");
        } else if (std::strncmp(a, "--shards=", 9) == 0) {
            o.shards = parseUnsigned(a + 9, "--shards");
        } else if (std::strcmp(a, "--csv") == 0) {
            o.csvOnly = true;
        } else if (std::strcmp(a, "--help") == 0 ||
                   std::strcmp(a, "-h") == 0) {
            std::printf(
                "usage: %s [--jobs N | --serial] [--shards N] "
                "[--csv]\n"
                "  --jobs N    run the experiment campaign on N worker "
                "threads\n"
                "              (default: MEMSEC_JOBS or all hardware "
                "threads)\n"
                "  --serial    same as --jobs 1\n"
                "  --shards N  step each run's memory channels on N "
                "threads\n"
                "              (sim.shards; clamped to the channel "
                "count)\n"
                "  --csv       print only the CSV block\n"
                "Results are byte-identical at any --jobs or --shards "
                "value; see\ndocs/CONFIG.md for run-length environment "
                "knobs (MEMSEC_MEASURE/WARMUP/QUICK).\n",
                argv[0]);
            std::exit(0);
        } else {
            fatal("unknown flag '{}' (try --help)", a);
        }
    }
    return o;
}

harness::CampaignOptions
BenchOptions::campaignOptions() const
{
    harness::CampaignOptions co;
    co.jobs = jobs;
    co.progress = true;
    return co;
}

Config
baseConfig(unsigned cores)
{
    Config c = harness::defaultConfig();
    const RunScale s = RunScale::fromEnv();
    c.set("cores", cores);
    c.set("sim.warmup", s.warmup);
    c.set("sim.measure", s.measure);
    return c;
}

std::vector<SuiteRow>
runSuite(const std::vector<std::string> &schemes,
         const std::vector<std::string> &workloads, const Config &base,
         const BenchOptions &opts)
{
    harness::Campaign campaign;
    std::vector<size_t> baselineIdx;
    std::vector<std::vector<size_t>> schemeIdx;
    for (const auto &wl : workloads) {
        Config bc = base;
        bc.merge(harness::schemeConfig("baseline"));
        bc.set("workload", wl);
        baselineIdx.push_back(campaign.add(wl + "/baseline", bc));
        schemeIdx.emplace_back();
        for (const auto &scheme : schemes) {
            Config c = base;
            c.merge(harness::schemeConfig(scheme));
            c.set("workload", wl);
            schemeIdx.back().push_back(
                campaign.add(wl + "/" + scheme, std::move(c)));
        }
    }
    const auto &summary = campaign.run(opts.campaignOptions());
    std::cerr << summary.toString() << "\n";

    std::vector<SuiteRow> rows;
    for (size_t w = 0; w < workloads.size(); ++w) {
        SuiteRow row;
        row.workload = workloads[w];
        const std::vector<double> baseIpc =
            campaign.result(baselineIdx[w]).ipc;
        for (size_t s = 0; s < schemes.size(); ++s) {
            const auto &r = campaign.result(schemeIdx[w][s]);
            row.weightedIpc[schemes[s]] = r.weightedIpc(baseIpc);
            row.results.emplace(schemes[s], r);
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

double
suiteMean(const std::vector<SuiteRow> &rows, const std::string &scheme)
{
    if (rows.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &r : rows)
        sum += r.weightedIpc.at(scheme);
    return sum / static_cast<double>(rows.size());
}

void
printTable(const std::string &title, const Table &t,
           const BenchOptions &opts)
{
    if (opts.csvOnly) {
        t.printCsv(std::cout);
        return;
    }
    if (!title.empty())
        std::cout << "\n== " << title << " ==\n";
    t.print(std::cout);
    std::cout << "\ncsv:\n";
    t.printCsv(std::cout);
}

void
printFigure(const std::string &title, const std::vector<SuiteRow> &rows,
            const std::vector<std::string> &schemes,
            const std::string &metricNote, const BenchOptions &opts)
{
    Table t;
    std::vector<std::string> hdr = {"workload"};
    hdr.insert(hdr.end(), schemes.begin(), schemes.end());
    t.header(hdr);
    for (const auto &r : rows) {
        std::vector<double> vals;
        for (const auto &s : schemes)
            vals.push_back(r.weightedIpc.at(s));
        t.rowNumeric(r.workload, vals);
    }
    std::vector<double> am;
    for (const auto &s : schemes)
        am.push_back(suiteMean(rows, s));
    t.rowNumeric("AM", am);
    if (!opts.csvOnly) {
        std::cout << "\n== " << title << " ==\n";
        if (!metricNote.empty())
            std::cout << metricNote << "\n";
    }
    printTable("", t, opts);
}

} // namespace memsec::bench
