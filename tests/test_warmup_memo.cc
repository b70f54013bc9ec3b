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

#include "cache/cache.hh"
#include "cpu/core_model.hh"
#include "cpu/trace_file.hh"
#include "cpu/workload.hh"
#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "util/serialize.hh"

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
    // leak.window keys the senders' ratio, which warmup never reads
    // (a modulated ratio always draws the gap): every core hits.
    add("covert window 2000", covert(2000), {0, 4, 0});
    add("covert window 1500", covert(1500), {4, 0, 0});
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

namespace {

constexpr uint64_t kKeyRecords = 20000;

std::string
keyOf(const cpu::WorkloadProfile &p)
{
    return cpu::warmupKey(p, 1, kKeyRecords, 512 * 1024, 8);
}

/** The generator's and the LLC's bytes after the warmup keyOf() names. */
std::string
warmBytes(const cpu::WorkloadProfile &p)
{
    cpu::SyntheticTraceGenerator g(p, 1);
    cache::Cache llc(512 * 1024, 8);
    g.skipRecords(kKeyRecords, llc);
    Serializer s;
    g.saveState(s);
    llc.saveState(s);
    return s.take();
}

/** Each WarmSpec field's bytes, on its own. */
std::vector<std::string>
specFields(const cpu::WorkloadProfile &p)
{
    const cpu::WarmSpec w(p);
    std::vector<std::string> fields;
    auto add = [&](const auto &field) {
        Serializer s;
        s.io(field);
        fields.push_back(s.take());
    };
    add(w.storeFraction);
    add(w.reuseFraction);
    add(w.streamFraction);
    add(w.footprintLines);
    add(w.numStreams);
    add(w.strideLines);
    add(w.phaseLength);
    add(w.modulated);
    add(w.drawGap);
    return fields;
}

/** A profile with neither phases nor modulation. */
cpu::WorkloadProfile
plainProfile(double memRatio)
{
    cpu::WorkloadProfile p = cpu::profileByName("mcf");
    p.phaseLength = 0;
    p.memRatio = memRatio;
    return p;
}

} // namespace

TEST(WarmupMemo, KeyIsSound)
{
    // Two-sided, for every single-field profile edit on a phased, a
    // modulated and a plain profile: either the key changes, or a
    // warmup of the edited profile leaves byte-identical generator and
    // LLC state. An edit that keeps the key is a field the warmup does
    // not read, and the memo may serve it another profile's state.
    cpu::WorkloadProfile sender = cpu::profileByName("modsender");
    sender.modWindowCycles = 2000;
    const std::vector<cpu::WorkloadProfile> bases = {
        cpu::profileByName("mcf"), sender, plainProfile(1.0)};

    std::vector<void (*)(cpu::WorkloadProfile &)> edits = {
        [](cpu::WorkloadProfile &q) { q.name = "mcf2"; },
        [](cpu::WorkloadProfile &q) { q.memRatio -= 0.01; },
        [](cpu::WorkloadProfile &q) { q.memRatio /= 2; },
        [](cpu::WorkloadProfile &q) { q.storeFraction += 0.01; },
        [](cpu::WorkloadProfile &q) { ++q.footprintLines; },
        [](cpu::WorkloadProfile &q) { q.streamFraction += 0.01; },
        [](cpu::WorkloadProfile &q) { ++q.numStreams; },
        [](cpu::WorkloadProfile &q) { ++q.strideLines; },
        [](cpu::WorkloadProfile &q) { q.reuseFraction -= 0.01; },
        [](cpu::WorkloadProfile &q) { ++q.mshrs; },
        [](cpu::WorkloadProfile &q) { ++q.phaseLength; },
        [](cpu::WorkloadProfile &q) { q.phaseLength = 0; },
        [](cpu::WorkloadProfile &q) { q.phaseLowFactor += 0.01; },
        [](cpu::WorkloadProfile &q) { q.phaseHighFactor += 0.01; },
        [](cpu::WorkloadProfile &q) { ++q.modWindowCycles; },
        [](cpu::WorkloadProfile &q) { q.modWindowCycles = 0; },
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
    unsigned shared = 0;
    unsigned changed = 0;
    for (size_t b = 0; b < bases.size(); ++b) {
        const cpu::WorkloadProfile &p = bases[b];
        const std::string k = keyOf(p);
        const std::string warm = warmBytes(p);
        for (size_t i = 0; i < edits.size(); ++i) {
            cpu::WorkloadProfile q = p;
            edits[i](q);
            if (keyOf(q) != k) {
                ++changed;
                continue;
            }
            ++shared;
            EXPECT_TRUE(warmBytes(q) == warm)
                << "base " << b << ", profile edit " << i
                << ": the key missed an input of the warmup";
        }
    }
    // Both sides are exercised: the phase factors, the window and the
    // traffic fields share keys; the spec fields do not.
    EXPECT_GT(shared, 0u);
    EXPECT_GT(changed, 0u);

    // The inputs beside the profile.
    const cpu::WorkloadProfile p = bases[0];
    const std::string k = cpu::warmupKey(p, 1, 1000, 512 * 1024, 8);
    EXPECT_EQ(k, cpu::warmupKey(p, 1, 1000, 512 * 1024, 8));
    EXPECT_NE(k, cpu::warmupKey(p, 2, 1000, 512 * 1024, 8));
    EXPECT_NE(k, cpu::warmupKey(p, 1, 1001, 512 * 1024, 8));
    EXPECT_NE(k, cpu::warmupKey(p, 1, 1000, 256 * 1024, 8));
    EXPECT_NE(k, cpu::warmupKey(p, 1, 1000, 512 * 1024, 4));
}

TEST(WarmupMemo, KeyCoversEverySpecField)
{
    // Each edit changes exactly one WarmSpec field (checked), and the
    // key with it. The name is keyed as well.
    struct Edit
    {
        cpu::WorkloadProfile base;
        void (*edit)(cpu::WorkloadProfile &);
        size_t field; ///< index into specFields()
    };
    const cpu::WorkloadProfile mcf = cpu::profileByName("mcf");
    const std::vector<Edit> edits = {
        {mcf, [](cpu::WorkloadProfile &q) { q.storeFraction += 0.01; }, 0},
        {mcf, [](cpu::WorkloadProfile &q) { q.reuseFraction -= 0.01; }, 1},
        {mcf, [](cpu::WorkloadProfile &q) { q.streamFraction += 0.01; }, 2},
        {mcf, [](cpu::WorkloadProfile &q) { ++q.footprintLines; }, 3},
        {mcf, [](cpu::WorkloadProfile &q) { ++q.numStreams; }, 4},
        {mcf, [](cpu::WorkloadProfile &q) { ++q.strideLines; }, 5},
        {mcf, [](cpu::WorkloadProfile &q) { ++q.phaseLength; }, 6},
        {plainProfile(0.3),
         [](cpu::WorkloadProfile &q) { q.modWindowCycles = 2000; }, 7},
        {plainProfile(1.0), [](cpu::WorkloadProfile &q) { q.memRatio = 0.5; },
         8},
    };
    ASSERT_EQ(edits.size(), specFields(mcf).size());
    for (const Edit &e : edits) {
        cpu::WorkloadProfile q = e.base;
        e.edit(q);
        const std::vector<std::string> before = specFields(e.base);
        const std::vector<std::string> after = specFields(q);
        for (size_t f = 0; f < before.size(); ++f) {
            EXPECT_EQ(before[f] != after[f], f == e.field)
                << "spec field " << f << " under the edit of field "
                << e.field;
        }
        EXPECT_NE(keyOf(q), keyOf(e.base)) << "spec field " << e.field;
    }
    cpu::WorkloadProfile renamed = mcf;
    renamed.name = "mcf2";
    EXPECT_NE(keyOf(renamed), keyOf(mcf));
}
