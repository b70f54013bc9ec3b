/**
 * @file
 * Deterministic engagement gate for the idle-skip kernel. The
 * differential suite (test_fastforward_diff.cc) proves a skipped
 * cycle is invisible; this test proves the kernel still skips. At
 * each point (scheme x workload) the number of cycles the tick loop
 * executes and the fraction it skips are simulated counts, so they
 * are pinned exactly as upper and lower bounds: a wake hint that
 * stops engaging fails here on any host, under load and under
 * sanitizers, unlike a wall-clock gate.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/experiment.hh"

using namespace memsec;
using namespace memsec::harness;

namespace {

ExperimentResult
runPoint(const std::string &scheme, const std::string &workload)
{
    Config c = defaultConfig();
    c.merge(schemeConfig(scheme));
    c.set("workload", workload);
    c.set("cores", 8);
    c.set("sim.warmup", 1000);
    c.set("sim.measure", 600000);
    // The LLC warmup does not touch the tick loop; keep it short.
    c.set("core.functional_warmup", 4000);
    return runExperiment(c);
}

double
skipRatio(const ExperimentResult &r)
{
    const uint64_t total = r.cyclesExecuted + r.cyclesSkipped;
    return static_cast<double>(r.cyclesSkipped) /
           static_cast<double>(total);
}

/** Pins are the counts the kernel reaches today at this point. A
 *  change that executes more cycles or skips a smaller share has
 *  lost a fast path; one that does better should lower the pins. */
void
expectEngaged(const std::string &scheme, const std::string &workload,
              uint64_t maxExecuted, double minSkipRatio)
{
    const std::string point = scheme + " x " + workload;
    const ExperimentResult r = runPoint(scheme, workload);
    ASSERT_TRUE(r.simErrors.empty()) << point;
    EXPECT_EQ(r.cyclesExecuted + r.cyclesSkipped, r.cyclesRun) << point;
    EXPECT_LE(r.cyclesExecuted, maxExecuted) << point;
    EXPECT_GE(skipRatio(r), minSkipRatio)
        << point << ": executed " << r.cyclesExecuted << ", skipped "
        << r.cyclesSkipped;
}

} // namespace

TEST(KernelEngagement, FsNpHog)
{
    // ~91% of cycles skip: every core waits on a distant slot.
    expectEngaged("fs_np", "hog", 55198, 0.9081);
}

TEST(KernelEngagement, FsNpMcf)
{
    expectEngaged("fs_np", "mcf", 87445, 0.8545);
}

TEST(KernelEngagement, FsRpMcf)
{
    // Rank partitioning gives the densest schedule (l = 7): the least
    // dead time to skip, the hardest case for the fast path.
    expectEngaged("fs_rp", "mcf", 390777, 0.3497);
}

TEST(KernelEngagement, BaselineMcf)
{
    // An idle FR-FCFS baseline sleeps until its next legal command.
    expectEngaged("baseline", "mcf", 561363, 0.0659);
}

TEST(KernelEngagement, BaselinePrefetchMcf)
{
    // With prefetch promotion on, the baseline still sleeps while no
    // prefetch is promotable, waking at least once per utilisation
    // window (it used to execute every cycle).
    expectEngaged("baseline_prefetch", "mcf", 561404, 0.0658);
}
