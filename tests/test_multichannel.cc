/**
 * @file
 * Multi-channel operation (the paper's 32-core / 4-channel target
 * system): domains are spread over channels and rank-partitioned
 * within their channel; each channel runs its own FS pipeline.
 */

#include <gtest/gtest.h>

#include <set>

#include "analysis/noninterference_certifier.hh"
#include "core/noninterference.hh"
#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "mem/address_map.hh"
#include "mem/memory_controller.hh"
#include "sched/tp.hh"

using namespace memsec;
using namespace memsec::harness;
using namespace memsec::mem;

TEST(MultiChannel, RankPartitionSpreadsDomainsOverChannels)
{
    dram::Geometry geo;
    geo.channels = 4;
    AddressMap m(geo, Partition::Rank, Interleave::ClosePage, 32);
    // 8 domains per channel, one private rank each.
    std::set<std::pair<unsigned, unsigned>> seen; // (channel, rank)
    for (DomainId d = 0; d < 32; ++d) {
        EXPECT_EQ(m.channelOf(d), d % 4);
        ASSERT_EQ(m.ranksOf(d).size(), 1u);
        EXPECT_TRUE(
            seen.insert({m.channelOf(d), m.ranksOf(d)[0]}).second)
            << "domain " << d << " shares a (channel, rank)";
    }
    EXPECT_EQ(seen.size(), 32u);
}

TEST(MultiChannel, DecodeStaysOnOwnChannel)
{
    dram::Geometry geo;
    geo.channels = 4;
    AddressMap m(geo, Partition::Rank, Interleave::ClosePage, 32);
    for (DomainId d = 0; d < 32; ++d) {
        for (Addr a : {0ull, 1ull << 20, 123456789ull})
            EXPECT_EQ(m.decode(d, a).channel, d % 4);
    }
}

TEST(MultiChannel, IndivisibleDomainCountFatal)
{
    dram::Geometry geo;
    geo.channels = 4;
    EXPECT_EXIT(AddressMap(geo, Partition::Rank,
                           Interleave::ClosePage, 30),
                ::testing::ExitedWithCode(1), "divisible");
}

namespace {

Config
targetConfig(const std::string &scheme, const std::string &workload)
{
    Config c = defaultConfig();
    c.merge(schemeConfig(scheme));
    c.set("dram.channels", 4);
    c.set("cores", 32);
    c.set("workload", workload);
    c.set("sim.warmup", 2000);
    c.set("sim.measure", 15000);
    return c;
}

} // namespace

TEST(MultiChannel, TargetSystemRunsCleanUnderFs)
{
    // 32 cores, 4 channels, FS per channel; the timing checker panics
    // on any cross-channel bookkeeping error.
    const auto r = runExperiment(targetConfig("fs_rp", "milc"));
    ASSERT_EQ(r.ipc.size(), 32u);
    double total = 0;
    for (double v : r.ipc)
        total += v;
    EXPECT_GT(total, 0.0);
    // Four independent l=7 pipelines: aggregate utilisation can reach
    // 4x one channel's, but the reported value is per-channel.
    EXPECT_LE(r.effectiveBandwidth, 4.0 / 7 + 0.01);
}

TEST(MultiChannel, TargetSystemBaselineRuns)
{
    const auto r = runExperiment(targetConfig("baseline", "mix1"));
    ASSERT_EQ(r.ipc.size(), 32u);
    EXPECT_GT(r.demandReads, 0u);
}

TEST(MultiChannel, NonInterferenceAcrossChannels)
{
    // Victim on core 0 (channel 0); co-runners everywhere, including
    // its own channel. 16 cores over 4 channels keeps runtime down.
    auto run = [](const char *co) {
        Config c = defaultConfig();
        c.merge(schemeConfig("fs_rp"));
        c.set("dram.channels", 4);
        c.set("cores", 16);
        std::string wl = "mcf";
        for (int i = 0; i < 15; ++i)
            wl += std::string(",") + co;
        c.set("workload", wl);
        c.set("sim.warmup", 0);
        c.set("sim.measure", 20000);
        c.set("audit.core", 0);
        return runExperiment(c).timelines.at(0);
    };
    const auto audit = core::compareTimelines(run("idle"), run("hog"));
    EXPECT_TRUE(audit.identical) << audit.detail;
}

TEST(MultiChannel, TpRunsMultiChannel)
{
    // Each channel runs its own turn wheel over the domains mapped
    // to it. This used to be rejected with a fatal(); it now has to
    // run and make forward progress on every core.
    const auto r = runExperiment(targetConfig("tp_bp", "mcf"));
    ASSERT_EQ(r.ipc.size(), 32u);
    for (size_t i = 0; i < r.ipc.size(); ++i)
        EXPECT_GT(r.ipc[i], 0.0) << "core " << i << " starved";
    EXPECT_GT(r.demandReads, 0u);
}

TEST(MultiChannel, TpTurnsCycleThroughTheChannelsOwnDomains)
{
    // 4 domains on 2 channels: domains 0 and 2 live on channel 0, 1
    // and 3 on channel 1. Each controller's turns rotate over its own
    // two domains, so no turn is dead.
    Config c = defaultConfig();
    c.merge(schemeConfig("tp_bp"));
    c.set("dram.channels", 2);
    c.set("cores", 4);
    c.set("workload", "mcf");
    ExperimentSystem sys(c);
    const unsigned turn = static_cast<unsigned>(c.getUint("tp.turn"));
    for (unsigned m = 0; m < 2; ++m) {
        const auto &tp = dynamic_cast<const sched::TpScheduler &>(
            sys.controller(m).scheduler());
        const std::vector<DomainId> own = {m, m + 2};
        EXPECT_EQ(tp.params().domains, own) << "channel " << m;
        for (Cycle t = 0; t < 8; ++t) {
            EXPECT_EQ(tp.activeDomain(t * turn), own[t % 2])
                << "channel " << m << " turn " << t;
            EXPECT_EQ(tp.activeDomain(t * turn + turn - 1), own[t % 2]);
        }
    }

    // The channel's scheduler, exactly as the harness built it,
    // certifies for its own domain 0 against every co-runner subset.
    const sched::TpScheduler::Params params =
        dynamic_cast<const sched::TpScheduler &>(
            sys.controller(0).scheduler())
            .params();
    analysis::CertifierConfig cert;
    cert.scheme = analysis::CertScheme::Tp;
    cert.partition = mem::Partition::Bank;
    cert.numDomains = 4;
    cert.observer = 0;
    cert.makeScheduler = [&](mem::MemoryController &mc) {
        return std::make_unique<sched::TpScheduler>(mc, params);
    };
    const analysis::CertifyResult r =
        analysis::NoninterferenceCertifier(cert).certify();
    EXPECT_TRUE(r.certified) << r.summary();

    // And the victim's own timeline is the same next to idle and
    // next to hogging co-runners, on its channel and the other.
    auto run = [&](const char *co) {
        Config v = c;
        v.set("workload", std::string("mcf,") + co + "," + co + "," + co);
        v.set("sim.warmup", 0);
        v.set("sim.measure", 20000);
        v.set("audit.core", 0);
        return runExperiment(v).timelines.at(0);
    };
    const auto audit = core::compareTimelines(run("idle"), run("hog"));
    EXPECT_TRUE(audit.identical) << audit.detail;
}

TEST(MultiChannel, FsReorderedRunsMultiChannel)
{
    const auto r = runExperiment(targetConfig("fs_reordered_bp", "mcf"));
    ASSERT_EQ(r.ipc.size(), 32u);
    EXPECT_GT(r.demandReads, 0u);
}

TEST(MultiChannel, ChannelPartitionGeometryBumpIsRecordedAndInert)
{
    // Channel partitioning with fewer channels than domains: the
    // harness widens the geometry (with a warn()) instead of
    // failing. The override must be recorded in the result, and the
    // run must be byte-identical to asking for the effective
    // geometry explicitly — the bump is a convenience, not a
    // different system.
    Config bumped = defaultConfig();
    bumped.merge(schemeConfig("channel_part"));
    bumped.set("cores", 8);
    bumped.set("dram.channels", 4);
    bumped.set("workload", "mcf");
    bumped.set("sim.warmup", 1000);
    bumped.set("sim.measure", 10000);
    Config explicit8 = bumped;
    explicit8.set("dram.channels", 8);

    const auto rb = runExperiment(bumped);
    const auto re = runExperiment(explicit8);
    EXPECT_TRUE(rb.geometryOverridden);
    EXPECT_EQ(rb.effectiveChannels, 8u);
    EXPECT_FALSE(re.geometryOverridden);
    EXPECT_EQ(re.effectiveChannels, 8u);
    EXPECT_EQ(resultDigest(rb), resultDigest(re));
}
