/**
 * Differential proof of the functional-warmup memo.
 *
 * A batch of experiments runs in one process with the memo hot, in an
 * order that makes later runs reuse earlier warm state and puts
 * near-misses (keys that differ in one input) right after the run
 * they nearly match. Every result must be byte-identical to the same
 * experiment run after resetWarmupMemo(), i.e. with every warmup
 * replayed from scratch. The memo counts pin which cores hit, so a
 * key that ignored one of its inputs shows up even when the shared
 * state would happen to give the same digest.
 *
 * The parallel arm runs the batch as a campaign on MEMSEC_JOBS
 * workers (default 4); CI runs it under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "cpu/core_model.hh"
#include "cpu/trace_file.hh"
#include "cpu/workload.hh"
#include "harness/campaign.hh"
#include "harness/experiment.hh"

using namespace memsec;
using cpu::WarmupMemoStats;

namespace {

constexpr unsigned kCores = 4;

struct Point
{
    std::string label;
    Config cfg;
    /** Memo counts this run adds, run in batch order. */
    WarmupMemoStats expect;
};

Config
base(const std::string &scheme, const std::string &workload)
{
    Config c = harness::defaultConfig();
    c.merge(harness::schemeConfig(scheme));
    c.set("cores", kCores);
    c.set("workload", workload);
    c.set("sim.warmup", 2000);
    c.set("sim.measure", 20000);
    return c;
}

Config
covert(uint64_t window)
{
    Config c = base("fs_rp", "probe,modsender,modsender,modsender");
    c.set("audit.core", 0);
    c.set("leak.window", window);
    return c;
}

std::string
tracePath()
{
    static const std::string path = [] {
        const std::string p = ::testing::TempDir() + "memsec_memo.txt";
        cpu::SyntheticTraceGenerator src(cpu::profileByName("zeusmp"), 7);
        cpu::recordTrace(src, 20000, p);
        return p;
    }();
    return path;
}

/** The batch, in submission order, with each run's expected counts
 *  (hits, misses, bypasses) against a memo bounded at kCores. */
std::vector<Point>
batch()
{
    std::vector<Point> b;
    auto add = [&](std::string label, Config c, WarmupMemoStats e) {
        b.push_back({std::move(label), std::move(c), e});
    };
    add("mcf/baseline", base("baseline", "mcf"), {0, 4, 0});
    add("mcf/fs_rp", base("fs_rp", "mcf"), {4, 0, 0});
    add("mcf/tp_bp", base("tp_bp", "mcf"), {4, 0, 0});
    {
        Config c = base("fs_rp", "mcf");
        c.set("core.llc_kb", 256);
        add("mcf/fs_rp llc 256K", std::move(c), {0, 4, 0});
    }
    {
        Config c = base("fs_rp", "mcf");
        c.set("core.functional_warmup", 50000);
        add("mcf/fs_rp warmup 50k", std::move(c), {0, 4, 0});
    }
    {
        // Domain 1 open-loop: it replays unmemoized, the closed-loop
        // cores reuse the previous run's warm state.
        Config c = base("fs_rp", "mcf");
        c.set("core.functional_warmup", 50000);
        c.set("traffic.d1.process", "poisson");
        add("mcf/fs_rp warmup 50k d1 poisson", std::move(c), {3, 0, 1});
    }
    add("mix1/baseline", base("baseline", "mix1"), {0, 4, 0});
    add("mix1/fs_rp", base("fs_rp", "mix1"), {4, 0, 0});
    add("mix1/tp_bp", base("tp_bp", "mix1"), {4, 0, 0});
    // Only the senders see leak.window: the probe core still hits.
    add("covert window 2000", covert(2000), {0, 4, 0});
    add("covert window 1500", covert(1500), {1, 3, 0});
    // Trace-file cores replay unmemoized; the mcf cores between them
    // miss once, then hit.
    const std::string trace = "trace:" + tracePath() + ",mcf";
    add("trace/fs_rp", base("fs_rp", trace), {0, 2, 2});
    add("trace/tp_bp", base("tp_bp", trace), {2, 0, 2});
    return b;
}

WarmupMemoStats
operator-(const WarmupMemoStats &a, const WarmupMemoStats &b)
{
    return {a.hits - b.hits, a.misses - b.misses, a.bypasses - b.bypasses};
}

/** Digest of each batch run with the memo emptied before it. */
const std::vector<std::string> &
coldDigests()
{
    static const std::vector<std::string> digests = [] {
        std::vector<std::string> d;
        for (const Point &p : batch()) {
            cpu::resetWarmupMemo();
            d.push_back(
                harness::resultDigest(harness::runExperiment(p.cfg)));
        }
        return d;
    }();
    return digests;
}

unsigned
jobsFromEnv()
{
    const char *env = std::getenv("MEMSEC_JOBS");
    const int n = env ? std::atoi(env) : 0;
    return n > 0 ? static_cast<unsigned>(n) : 4;
}

} // namespace

TEST(WarmupMemo, HotBatchMatchesColdRuns)
{
    const std::vector<Point> points = batch();
    const std::vector<std::string> &cold = coldDigests();
    cpu::resetWarmupMemo();
    for (size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        const WarmupMemoStats before = cpu::warmupMemoStats();
        const std::string hot =
            harness::resultDigest(harness::runExperiment(p.cfg));
        const WarmupMemoStats got = cpu::warmupMemoStats() - before;
        EXPECT_EQ(got.hits, p.expect.hits) << p.label;
        EXPECT_EQ(got.misses, p.expect.misses) << p.label;
        EXPECT_EQ(got.bypasses, p.expect.bypasses) << p.label;
        EXPECT_EQ(hot, cold[i]) << p.label << ": memoized warm state "
                                   "changed the result";
    }
}

TEST(WarmupMemo, ParallelCampaignMatchesColdRuns)
{
    const std::vector<Point> points = batch();
    const std::vector<std::string> &cold = coldDigests();
    cpu::resetWarmupMemo();
    harness::Campaign campaign;
    for (const Point &p : points)
        campaign.add(p.label, p.cfg);
    harness::CampaignOptions opts;
    opts.jobs = jobsFromEnv();
    campaign.run(opts);
    for (size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(harness::resultDigest(campaign.result(i)), cold[i])
            << points[i].label << " under --jobs " << opts.jobs;
    }
    // Racing workers may both miss on one key, but every core of
    // every run looks the memo up exactly once.
    const WarmupMemoStats s = cpu::warmupMemoStats();
    EXPECT_EQ(s.hits + s.misses + s.bypasses, points.size() * kCores);
}

TEST(WarmupMemo, KeyCoversEveryInput)
{
    // Each input of warmupKey() on its own must change the key.
    const cpu::WorkloadProfile p = cpu::profileByName("mcf");
    const std::string k = cpu::warmupKey(p, 1, 1000, 512 * 1024, 8);
    EXPECT_EQ(k, cpu::warmupKey(p, 1, 1000, 512 * 1024, 8));
    EXPECT_NE(k, cpu::warmupKey(p, 2, 1000, 512 * 1024, 8));
    EXPECT_NE(k, cpu::warmupKey(p, 1, 1001, 512 * 1024, 8));
    EXPECT_NE(k, cpu::warmupKey(p, 1, 1000, 256 * 1024, 8));
    EXPECT_NE(k, cpu::warmupKey(p, 1, 1000, 512 * 1024, 4));

    std::vector<void (*)(cpu::WorkloadProfile &)> edits = {
        [](cpu::WorkloadProfile &q) { q.name = "mcf2"; },
        [](cpu::WorkloadProfile &q) { q.memRatio += 0.01; },
        [](cpu::WorkloadProfile &q) { q.storeFraction += 0.01; },
        [](cpu::WorkloadProfile &q) { ++q.footprintLines; },
        [](cpu::WorkloadProfile &q) { q.streamFraction += 0.01; },
        [](cpu::WorkloadProfile &q) { ++q.numStreams; },
        [](cpu::WorkloadProfile &q) { ++q.strideLines; },
        [](cpu::WorkloadProfile &q) { q.reuseFraction -= 0.01; },
        [](cpu::WorkloadProfile &q) { ++q.mshrs; },
        [](cpu::WorkloadProfile &q) { ++q.phaseLength; },
        [](cpu::WorkloadProfile &q) { q.phaseLowFactor += 0.01; },
        [](cpu::WorkloadProfile &q) { q.phaseHighFactor += 0.01; },
        [](cpu::WorkloadProfile &q) { ++q.modWindowCycles; },
        [](cpu::WorkloadProfile &q) { ++q.modSecretSeed; },
        [](cpu::WorkloadProfile &q) { ++q.modSecretBits; },
        [](cpu::WorkloadProfile &q) { q.modOffFactor += 0.01; },
        [](cpu::WorkloadProfile &q) { q.modSymbols.push_back(1); },
        [](cpu::WorkloadProfile &q) { q.tracePath = "t"; },
        [](cpu::WorkloadProfile &q) { q.trafficProcess = "poisson"; },
        [](cpu::WorkloadProfile &q) { q.trafficRate += 1.0; },
        [](cpu::WorkloadProfile &q) { ++q.trafficClients; },
        [](cpu::WorkloadProfile &q) { q.trafficBurstFactor += 1.0; },
        [](cpu::WorkloadProfile &q) { q.trafficIdleFactor += 0.1; },
        [](cpu::WorkloadProfile &q) { q.trafficBurstLen += 1.0; },
        [](cpu::WorkloadProfile &q) { q.trafficIdleLen += 1.0; },
        [](cpu::WorkloadProfile &q) { q.trafficDiurnalPeriod += 1.0; },
        [](cpu::WorkloadProfile &q) { q.trafficDiurnalAmp += 0.1; },
    };
    for (size_t i = 0; i < edits.size(); ++i) {
        cpu::WorkloadProfile q = p;
        edits[i](q);
        EXPECT_NE(k, cpu::warmupKey(q, 1, 1000, 512 * 1024, 8))
            << "profile edit " << i;
    }
}
