/**
 * @file
 * Deterministic engagement gate for the idle-skip kernel. The
 * differential suite (test_fastforward_diff.cc) proves a skipped
 * cycle is invisible; this test proves the kernel still skips. On
 * the idle-heavy fixed-service points (fs_np x hog, fs_np x mcf) the
 * number of cycles the tick loop executes and the fraction it skips
 * are simulated counts, so they are pinned exactly as upper and
 * lower bounds: a wake hint that stops engaging fails here on any
 * host, under load and under sanitizers, unlike a wall-clock gate.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/experiment.hh"

using namespace memsec;
using namespace memsec::harness;

namespace {

ExperimentResult
runPoint(const std::string &workload)
{
    Config c = defaultConfig();
    c.merge(schemeConfig("fs_np"));
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
expectEngaged(const std::string &workload, uint64_t maxExecuted,
              double minSkipRatio)
{
    const ExperimentResult r = runPoint(workload);
    ASSERT_TRUE(r.simErrors.empty()) << workload;
    EXPECT_EQ(r.cyclesExecuted + r.cyclesSkipped, r.cyclesRun)
        << workload;
    EXPECT_LE(r.cyclesExecuted, maxExecuted) << workload;
    EXPECT_GE(skipRatio(r), minSkipRatio)
        << workload << ": executed " << r.cyclesExecuted << ", skipped "
        << r.cyclesSkipped;
}

} // namespace

TEST(KernelEngagement, FsNpHog)
{
    // ~91% of cycles skip: every core waits on a distant slot.
    expectEngaged("hog", 55241, 0.9080);
}

TEST(KernelEngagement, FsNpMcf)
{
    expectEngaged("mcf", 144458, 0.7596);
}
