/**
 * @file
 * End-to-end perf-regression harness for the simulation kernels.
 *
 * Runs full experiments (cores + controller + DRAM) in two execution
 * modes — naive per-cycle loop and idle-skip fast-forward — then:
 *   1. writes BENCH_PERF.json (cycles/sec, wall time, skip ratio per
 *      point, each name labelled with its mode) via the shared
 *      bench_common reporter;
 *   2. asserts the fast path delivers >= 2x end-to-end cycles/sec on
 *      the idle-heavy fixed-service point (fs_np x hog) — a
 *      self-relative ratio, so it holds on loaded CI machines;
 *   3. compares every point against the committed baseline
 *      (bench/BENCH_PERF_baseline.json) with a 25% tolerance —
 *      machine-sensitive, so it can be skipped independently.
 *
 * Environment:
 *   MEMSEC_PERF_JSON         output path (default BENCH_PERF.json)
 *   MEMSEC_PERF_BASELINE     baseline path (default: the committed
 *                            bench/BENCH_PERF_baseline.json)
 *   MEMSEC_PERF_NO_BASELINE  skip only the baseline comparison
 *                            (for ctest smoke runs on shared hosts)
 *   MEMSEC_PERF_NO_GATE      skip all gating (baseline regeneration)
 *
 * Standard google-benchmark flags apply; CI smoke uses
 * --benchmark_min_time=0.1x. See docs/PERF.md.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "bench_common.hh"
#include "harness/experiment.hh"
#include "util/logging.hh"

using namespace memsec;
using namespace memsec::bench;

namespace {

/** Wall time and kernel accounting summed over all iterations. */
constexpr Cycle kMeasureCycles = 600000;

enum class RunMode
{
    Naive,       ///< per-cycle tick loop
    FastForward, ///< idle-skip hints
};

const char *
modeLabel(RunMode mode)
{
    switch (mode) {
    case RunMode::Naive:
        return "naive";
    case RunMode::FastForward:
        return "fastforward";
    }
    return "unknown";
}

struct Accum
{
    std::string mode;
    double wallSeconds = 0.0;
    uint64_t simCycles = 0;
    uint64_t executed = 0;
    uint64_t skipped = 0;
};

std::map<std::string, Accum> &
accums()
{
    static std::map<std::string, Accum> a;
    return a;
}

void
runE2E(benchmark::State &state, const std::string &base,
       const std::string &scheme, const std::string &workload,
       RunMode mode)
{
    setQuiet(true);
    Config c = harness::defaultConfig();
    c.merge(harness::schemeConfig(scheme));
    c.set("workload", workload);
    c.set("cores", 8);
    c.set("sim.warmup", 1000);
    c.set("sim.measure", kMeasureCycles);
    // Keep the (tick-loop-irrelevant) functional cache warmup at
    // construction small, so wall time measures the kernel rather
    // than trace replay into the LLCs.
    c.set("core.functional_warmup", 4000);
    c.set("sim.fastforward", mode != RunMode::Naive);
    const std::string metric = modeMetricName(base, modeLabel(mode));
    Accum &acc = accums()[metric];
    acc.mode = modeLabel(mode);
    for (auto _ : state) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto r = harness::runExperiment(c);
        const auto t1 = std::chrono::steady_clock::now();
        acc.wallSeconds +=
            std::chrono::duration<double>(t1 - t0).count();
        acc.simCycles += r.cyclesRun;
        acc.executed += r.cyclesExecuted;
        acc.skipped += r.cyclesSkipped;
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(kMeasureCycles));
}

// The headline triple: the paper's basic no-partition fixed-service
// schedule (l = 43) under the memory-hogging co-runner profile.
// Every core spends most cycles ROB-blocked on a slot that is many
// cycles away, so the schedule is mostly statically dead time — the
// case the idle-skip kernel exists for (~90% of cycles skipped).
void
BM_E2E_FsNp_Naive(benchmark::State &state)
{
    runE2E(state, "e2e_fs_np_hog", "fs_np", "hog", RunMode::Naive);
}
BENCHMARK(BM_E2E_FsNp_Naive)->Unit(benchmark::kMillisecond);

void
BM_E2E_FsNp_FastForward(benchmark::State &state)
{
    runE2E(state, "e2e_fs_np_hog", "fs_np", "hog",
           RunMode::FastForward);
}
BENCHMARK(BM_E2E_FsNp_FastForward)->Unit(benchmark::kMillisecond);

// Pointer-chasing mcf on the same schedule: lower skip ratio,
// checks the win is not an artefact of one synthetic profile.
void
BM_E2E_FsNpMcf_FastForward(benchmark::State &state)
{
    runE2E(state, "e2e_fs_np_mcf", "fs_np", "mcf",
           RunMode::FastForward);
}
BENCHMARK(BM_E2E_FsNpMcf_FastForward)->Unit(benchmark::kMillisecond);

// Secondary points: rank-partitioned FS (densest schedule, l = 7 —
// least to skip, the hardest case for the fast path) and the
// non-secure FRFCFS baseline (busy nearly every cycle; guards against
// the hint queries themselves becoming a regression).
void
BM_E2E_FsRp_FastForward(benchmark::State &state)
{
    runE2E(state, "e2e_fs_rp_mcf", "fs_rp", "mcf",
           RunMode::FastForward);
}
BENCHMARK(BM_E2E_FsRp_FastForward)->Unit(benchmark::kMillisecond);

void
BM_E2E_Frfcfs_FastForward(benchmark::State &state)
{
    runE2E(state, "e2e_baseline_mcf", "baseline", "mcf",
           RunMode::FastForward);
}
BENCHMARK(BM_E2E_Frfcfs_FastForward)->Unit(benchmark::kMillisecond);

PerfMetric
toMetric(const std::string &name, const Accum &a)
{
    PerfMetric m;
    m.name = name;
    m.mode = a.mode;
    m.wallSeconds = a.wallSeconds;
    m.simCycles = a.simCycles;
    m.cyclesPerSec = a.wallSeconds > 0
                         ? static_cast<double>(a.simCycles) /
                               a.wallSeconds
                         : 0.0;
    const uint64_t total = a.executed + a.skipped;
    m.skipRatio =
        total > 0 ? static_cast<double>(a.skipped) /
                        static_cast<double>(total)
                  : 0.0;
    return m;
}

std::string
envOr(const char *name, const std::string &fallback)
{
    const char *v = std::getenv(name);
    return v != nullptr && v[0] != '\0' ? std::string(v) : fallback;
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    PerfReporter reporter;
    for (const auto &kv : accums())
        reporter.add(toMetric(kv.first, kv.second));

    const std::string jsonPath =
        envOr("MEMSEC_PERF_JSON", "BENCH_PERF.json");
    reporter.writeJson(jsonPath);
    std::cerr << "perf_e2e: wrote " << jsonPath << "\n";
    for (const auto &m : reporter.metrics()) {
        std::cerr << "  " << m.name << ": "
                  << static_cast<uint64_t>(m.cyclesPerSec)
                  << " cycles/s, skip ratio " << m.skipRatio << "\n";
    }

    if (std::getenv("MEMSEC_PERF_NO_GATE") != nullptr) {
        std::cerr << "perf_e2e: gating disabled "
                     "(MEMSEC_PERF_NO_GATE)\n";
        return 0;
    }

    int rc = 0;

    // Gate 1 (self-relative, load-insensitive): the fast path must
    // at least double end-to-end throughput on the idle-heavy point.
    const PerfMetric *naive = reporter.find("e2e_fs_np_hog_naive");
    const PerfMetric *fast =
        reporter.find("e2e_fs_np_hog_fastforward");
    if (naive != nullptr && fast != nullptr &&
        naive->cyclesPerSec > 0) {
        const double speedup = fast->cyclesPerSec / naive->cyclesPerSec;
        std::cerr << "perf_e2e: fs_np fast-forward speedup "
                  << speedup << "x (gate: >= 2x)\n";
        if (speedup < 2.0) {
            std::cerr << "perf_e2e: FAIL — idle-skip speedup below "
                         "2x on fs_np/hog\n";
            rc = 1;
        }
    } else if (naive != nullptr || fast != nullptr) {
        // A filter selected only half the pair; don't gate on it.
        std::cerr << "perf_e2e: speedup gate skipped (pair "
                     "incomplete under --benchmark_filter)\n";
    }

    // Gate 2 (machine-sensitive): committed-baseline tolerance.
    if (std::getenv("MEMSEC_PERF_NO_BASELINE") != nullptr) {
        std::cerr << "perf_e2e: baseline comparison skipped "
                     "(MEMSEC_PERF_NO_BASELINE)\n";
        return rc;
    }
    const std::string baselinePath =
        envOr("MEMSEC_PERF_BASELINE",
              std::string(MEMSEC_SOURCE_DIR) +
                  "/bench/BENCH_PERF_baseline.json");
    const auto failures = reporter.compareBaseline(baselinePath, 0.25);
    for (const auto &f : failures)
        std::cerr << "perf_e2e: FAIL — " << f << "\n";
    if (failures.empty())
        std::cerr << "perf_e2e: baseline gate passed ("
                  << baselinePath << ")\n";
    return failures.empty() ? rc : 1;
}
