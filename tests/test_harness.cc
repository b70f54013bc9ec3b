#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "harness/experiment.hh"
#include "util/logging.hh"

using namespace memsec;
using namespace memsec::harness;

namespace {

Config
tinyConfig(const std::string &scheme, const std::string &workload)
{
    Config c = defaultConfig();
    c.merge(schemeConfig(scheme));
    c.set("workload", workload);
    c.set("cores", 4);
    c.set("sim.warmup", 2000);
    c.set("sim.measure", 20000);
    return c;
}

} // namespace

TEST(Harness, DefaultConfigMatchesTable1)
{
    const Config c = defaultConfig();
    EXPECT_EQ(c.getUint("cores"), 8u);
    EXPECT_EQ(c.getUint("dram.ranks"), 8u);
    EXPECT_EQ(c.getUint("dram.banks"), 8u);
    EXPECT_EQ(c.getUint("core.rob"), 64u);
    EXPECT_EQ(c.getUint("core.retire_width"), 4u);
    EXPECT_EQ(c.getUint("core.cpu_mult"), 4u);
    EXPECT_EQ(c.getUint("core.llc_kb"), 512u); // 4 MB / 8 cores
}

TEST(Harness, AllSchemesHaveConfigs)
{
    for (const auto &s : allSchemes())
        EXPECT_NO_FATAL_FAILURE(schemeConfig(s)) << s;
    EXPECT_EXIT(schemeConfig("bogus"), ::testing::ExitedWithCode(1),
                "unknown scheme");
}

TEST(Harness, BaselineRunProducesSaneResults)
{
    const auto r = runExperiment(tinyConfig("baseline", "mcf"));
    EXPECT_EQ(r.cores, 4u);
    ASSERT_EQ(r.ipc.size(), 4u);
    for (double v : r.ipc) {
        EXPECT_GT(v, 0.0);
        EXPECT_LE(v, 4.0);
    }
    EXPECT_GT(r.meanReadLatency, 20.0);
    EXPECT_GT(r.effectiveBandwidth, 0.0);
    EXPECT_LE(r.effectiveBandwidth, 1.0);
    EXPECT_GT(r.energy.totalNj(), 0.0);
    EXPECT_GT(r.rowHitRate, 0.0);
}

TEST(Harness, FsRunRespectsTheoreticalPeak)
{
    const auto r = runExperiment(tinyConfig("fs_rp", "libquantum"));
    // 4 threads, l=7: peak = 4/(7*...)*... data bursts occupy at most
    // tBURST/l of the bus.
    EXPECT_LE(r.effectiveBandwidth, 4.0 / 7.0 + 0.01);
    EXPECT_EQ(r.scheme, "fs_rp");
}

TEST(Harness, WeightedIpcAgainstSelfIsCoreCount)
{
    const auto r = runExperiment(tinyConfig("baseline", "astar"));
    EXPECT_NEAR(r.weightedIpc(r.ipc), 4.0, 1e-9);
}

TEST(Harness, WeightedIpcSizeMismatchPanics)
{
    const auto r = runExperiment(tinyConfig("baseline", "astar"));
    EXPECT_THROW(r.weightedIpc({1.0}), std::logic_error);
}

TEST(Harness, BaselineIpcHelper)
{
    Config base = defaultConfig();
    base.set("cores", 2);
    base.set("sim.warmup", 1000);
    base.set("sim.measure", 10000);
    const auto ipc = baselineIpc("xalancbmk", base);
    ASSERT_EQ(ipc.size(), 2u);
    EXPECT_GT(ipc[0], 0.0);
}

TEST(Harness, DeterministicAcrossRuns)
{
    const auto a = runExperiment(tinyConfig("fs_rp", "milc"));
    const auto b = runExperiment(tinyConfig("fs_rp", "milc"));
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_DOUBLE_EQ(a.ipc[i], b.ipc[i]);
    EXPECT_DOUBLE_EQ(a.energy.totalNj(), b.energy.totalNj());
    EXPECT_EQ(a.demandReads, b.demandReads);
}

TEST(Harness, DummyFractionOnlyForFs)
{
    const auto base = runExperiment(tinyConfig("baseline", "mcf"));
    EXPECT_DOUBLE_EQ(base.dummyFraction, 0.0);
    const auto fs = runExperiment(tinyConfig("fs_rp", "xalancbmk"));
    EXPECT_GT(fs.dummyFraction, 0.0);
}

TEST(Harness, AuditCoreCapturesTimeline)
{
    Config c = tinyConfig("fs_rp", "mcf");
    c.set("audit.core", 0);
    c.set("audit.progress_interval", 1000);
    const auto r = runExperiment(c);
    ASSERT_FALSE(r.timelines.empty());
    EXPECT_FALSE(r.timelines[0].service.empty());
    EXPECT_FALSE(r.timelines[0].progress.empty());
}

TEST(Harness, SchemeConfigsPairSchedulerAndPartition)
{
    EXPECT_EQ(schemeConfig("fs_rp").getString("map.partition"), "rank");
    EXPECT_EQ(schemeConfig("fs_bp").getString("map.partition"), "bank");
    EXPECT_EQ(schemeConfig("tp_np").getString("map.partition"), "none");
    EXPECT_TRUE(schemeConfig("fs_np_triple").getBool("fs.triple"));
    EXPECT_TRUE(schemeConfig("fs_rp_powerdown").getBool("fs.suppress"));
}

TEST(Harness, EveryShippedConfigIsAccepted)
{
    // The combination rules accept every scheme the figures, examples
    // and proof suites run.
    auto expectAccepted = [](const Config &c, const std::string &what) {
        EXPECT_EQ(configProblems(c), "") << what;
    };
    const Config target = Config::loadFile(
        std::string(MEMSEC_SOURCE_DIR) + "/examples/configs/target32.ini");
    for (const std::string &scheme : allSchemes()) {
        const Config sc = schemeConfig(scheme);
        const std::string part = sc.getString("map.partition");
        for (unsigned channels : {1u, 2u}) {
            for (unsigned cores : {1u, 2u, 4u, 8u}) {
                // Rank and bank partitioning spread the domains evenly
                // over the channels.
                if (cores % channels != 0 &&
                    (part == "rank" || part == "bank"))
                    continue;
                Config c = defaultConfig();
                c.merge(sc);
                c.set("cores", cores);
                c.set("dram.channels", channels);
                expectAccepted(c, scheme + " at " + std::to_string(cores) +
                                      " cores, " + std::to_string(channels) +
                                      " channels");
            }
        }
        Config c = defaultConfig();
        c.merge(sc);
        c.merge(target);
        expectAccepted(c, scheme + " on target32.ini");
    }
    // bench/fig_leakage's partition overrides of the baseline, and the
    // fs_reordered_bp point the checkpoint and golden suites run.
    for (const char *part : {"bank", "rank"}) {
        Config c = defaultConfig();
        c.merge(schemeConfig("baseline"));
        c.set("map.partition", part);
        expectAccepted(c, std::string("baseline on ") + part);
    }
    for (unsigned cores : {4u, 8u}) {
        Config c = defaultConfig();
        c.merge(schemeConfig("fs_reordered_bp"));
        c.set("map.partition", "rank");
        c.set("cores", cores);
        expectAccepted(c, "fs_reordered_bp on rank");
    }
}

TEST(Harness, StatsDumpWritesFile)
{
    Config c = tinyConfig("fs_rp", "milc");
    const std::string path = ::testing::TempDir() + "memsec_stats.txt";
    c.set("stats.dump", path);
    runExperiment(c);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("mc0.demand_reads"), std::string::npos);
    EXPECT_NE(text.find("mc0.sched.dummy_ops"), std::string::npos);
    EXPECT_NE(text.find("core0.ipc"), std::string::npos);
}
