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

// -- perf-regression reporting (BENCH_PERF.json) -------------------

/**
 * One throughput point of the perf-regression harness: an end-to-end
 * experiment or a kernel microbenchmark, identified by a stable name
 * that the committed baseline keys on.
 */
struct PerfMetric
{
    std::string name;
    double cyclesPerSec = 0.0; ///< simulated cycles per wall second
    double wallSeconds = 0.0;  ///< total wall time measured
    double skipRatio = 0.0;    ///< skipped / (executed + skipped)
    uint64_t simCycles = 0;    ///< simulated cycles measured
    /** Execution mode that produced the point (naive / fastforward);
     *  empty for kernel micro metrics. */
    std::string mode;
};

/**
 * Canonical metric name for an execution mode: `base` + "_" + mode.
 * Keeps every BENCH_PERF.json point self-describing — a baseline row
 * can never be compared against a run from a different kernel mode.
 */
std::string modeMetricName(const std::string &base,
                           const std::string &mode);

/**
 * Shared reporter for the perf harness binaries (bench/micro_perf,
 * bench/perf_e2e): collects PerfMetrics, writes them as
 * BENCH_PERF.json (one metric object per line, so the baseline
 * comparator stays a line scanner, no JSON library needed), and
 * gates against a committed baseline. See docs/PERF.md.
 */
class PerfReporter
{
  public:
    void add(const PerfMetric &m) { metrics_.push_back(m); }
    bool empty() const { return metrics_.empty(); }
    const std::vector<PerfMetric> &metrics() const { return metrics_; }

    /** Find a collected metric by name (nullptr if absent). */
    const PerfMetric *find(const std::string &name) const;

    /** Write all metrics to `path` in BENCH_PERF.json format. */
    void writeJson(const std::string &path) const;

    /**
     * Compare against a committed baseline file: a metric more than
     * `tolerance` (fractional) slower than its baseline
     * cycles_per_sec is a failure. Metrics absent from the baseline
     * and faster-than-baseline runs pass. Returns human-readable
     * failure lines (empty = gate passed).
     */
    std::vector<std::string>
    compareBaseline(const std::string &baselinePath,
                    double tolerance) const;

    /** Parse name -> cycles_per_sec out of a BENCH_PERF.json file. */
    static std::map<std::string, double>
    readBaseline(const std::string &path);

  private:
    std::vector<PerfMetric> metrics_;
};

} // namespace memsec::bench

#endif // MEMSEC_BENCH_COMMON_HH
