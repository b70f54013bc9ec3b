/**
 * @file
 * Shared infrastructure for the figure-regeneration harnesses.
 *
 * Each bench binary regenerates one table/figure of the paper: it
 * sweeps the relevant schemes/parameters over the Section 6 workload
 * suite, normalises against the non-secure baseline exactly as the
 * paper does (sum of per-thread IPCs normalised to that thread's
 * baseline IPC), and prints both an aligned table and CSV.
 *
 * Experiments are submitted as a harness::Campaign and executed
 * across worker threads; a parallel campaign's results are
 * byte-identical to a serial one (see src/harness/campaign.hh and
 * DESIGN.md §9), so --jobs only changes wall-clock time.
 *
 * Command-line flags (every bench, parsed by BenchOptions::parse):
 *   --jobs N    worker threads (default: all hardware threads,
 *               overridable via MEMSEC_JOBS)
 *   --serial    same as --jobs 1
 *   --shards N  intra-run channel shards (sim.shards) for benches
 *               that honour it; results are byte-identical at any
 *               value (see docs/ARCHITECTURE.md)
 *   --csv       emit only the CSV block (machine-readable mode)
 *   --help      flag summary
 *
 * Environment knobs (all benches):
 *   MEMSEC_MEASURE  measured memory cycles per run (default 120000)
 *   MEMSEC_WARMUP   warmup memory cycles per run   (default 15000)
 *   MEMSEC_QUICK    if set, quarters the run length (CI smoke mode)
 *   MEMSEC_JOBS     default worker-thread count
 */

#ifndef MEMSEC_BENCH_COMMON_HH
#define MEMSEC_BENCH_COMMON_HH

#include <map>
#include <string>
#include <vector>

#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace memsec::bench {

/** Run-length configuration from the environment. */
struct RunScale
{
    Cycle warmup = 15000;
    Cycle measure = 120000;

    static RunScale fromEnv();
};

/** Parsed command-line options shared by every bench binary. */
struct BenchOptions
{
    unsigned jobs = 1;    ///< campaign worker threads
    unsigned shards = 1;  ///< intra-run channel shards (sim.shards)
    bool csvOnly = false; ///< print only the CSV block

    /**
     * Parse --jobs/--serial/--shards/--csv/--help (prints usage and
     * exits 0 on --help; fatal on unknown flags). The default job
     * count is MEMSEC_JOBS if set, else the hardware thread count.
     */
    static BenchOptions parse(int argc, char **argv);

    /** Campaign options matching these flags (progress on stderr). */
    harness::CampaignOptions campaignOptions() const;
};

/** Base config: Table 1 system + env-scaled run length. */
Config baseConfig(unsigned cores = 8);

/** One workload row of a figure: weighted IPC per scheme. */
struct SuiteRow
{
    std::string workload;
    std::map<std::string, double> weightedIpc;
    std::map<std::string, harness::ExperimentResult> results;
};

/**
 * Run `schemes` over `workloads` as one campaign (baseline runs for
 * normalisation included), normalising weighted IPC against the
 * workload's baseline run. Prints progress on stderr.
 */
std::vector<SuiteRow> runSuite(const std::vector<std::string> &schemes,
                               const std::vector<std::string> &workloads,
                               const Config &base,
                               const BenchOptions &opts = {});

/** Arithmetic mean across rows for one scheme. */
double suiteMean(const std::vector<SuiteRow> &rows,
                 const std::string &scheme);

/**
 * Print a figure table: workloads down, schemes across, plus AM.
 * In csvOnly mode, only the CSV block is emitted.
 */
void printFigure(const std::string &title,
                 const std::vector<SuiteRow> &rows,
                 const std::vector<std::string> &schemes,
                 const std::string &metricNote,
                 const BenchOptions &opts = {});

/** Print a hand-assembled table honouring csvOnly. */
void printTable(const std::string &title, const Table &t,
                const BenchOptions &opts);

} // namespace memsec::bench

#endif // MEMSEC_BENCH_COMMON_HH
