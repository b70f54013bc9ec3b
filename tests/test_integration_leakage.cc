/**
 * @file
 * End-to-end non-interference audit (the paper's central security
 * claim, visualised in its Figure 4). A victim (mcf on core 0) runs
 * against maximally different co-runner sets — all-idle vs all-hog —
 * and its externally visible timeline (per-request service history +
 * instruction-progress curve) must be BIT-IDENTICAL under every
 * secure scheduler, and measurably different under the baseline.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/noninterference.hh"
#include "harness/experiment.hh"
#include "leakage/channel.hh"

using namespace memsec;
using namespace memsec::harness;

namespace {

core::VictimTimeline
victimRun(const std::string &scheme, const std::string &corunner)
{
    Config c = defaultConfig();
    c.merge(schemeConfig(scheme));
    // Victim on core 0, seven identical co-runners.
    c.set("workload", "mcf," + corunner + "," + corunner + "," +
                          corunner + "," + corunner + "," + corunner +
                          "," + corunner + "," + corunner);
    c.set("cores", 8);
    c.set("sim.warmup", 0);
    c.set("sim.measure", 40000);
    c.set("audit.core", 0);
    c.set("audit.progress_interval", 1000);
    const ExperimentResult r = runExperiment(c);
    return r.timelines.at(0);
}

} // namespace

class SecureSchemeAudit : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SecureSchemeAudit, VictimTimelineIndependentOfCoRunners)
{
    const std::string scheme = GetParam();
    const auto quiet = victimRun(scheme, "idle");
    const auto noisy = victimRun(scheme, "hog");
    ASSERT_FALSE(quiet.service.empty());
    const auto audit = core::compareTimelines(quiet, noisy);
    EXPECT_TRUE(audit.identical)
        << scheme << " leaked: " << audit.detail;
}

INSTANTIATE_TEST_SUITE_P(AllSecureSchemes, SecureSchemeAudit,
                         ::testing::Values("fs_rp", "fs_bp",
                                           "fs_reordered_bp", "fs_np",
                                           "fs_np_triple", "tp_bp",
                                           "tp_np", "fs_rp_suppress",
                                           "fs_rp_powerdown"));

TEST(LeakageAudit, EveryAcceptedPartitionIsolatesTheVictim)
{
    // The combination rules must not accept a map that lets a secure
    // scheduler's victim see its co-runners: for every secure
    // scheduler and every map.partition the rules accept, mcf's
    // service timeline is identical beside idle and beside lbm cores.
    const std::vector<std::vector<std::pair<const char *, const char *>>>
        schedulers = {
            {{"sched", "fs"}, {"fs.mode", "rank"}},
            {{"sched", "fs"}, {"fs.mode", "bank"}},
            {{"sched", "fs"}, {"fs.mode", "none"}},
            {{"sched", "fs"}, {"fs.mode", "triple"}},
            {{"sched", "fs_reordered"}},
            {{"sched", "tp"}, {"tp.turn", "60"}},
            {{"sched", "tp"}, {"tp.turn", "172"}},
        };
    unsigned pairs = 0;
    for (const auto &settings : schedulers) {
        for (const char *part : {"none", "bank", "rank", "channel"}) {
            Config c = defaultConfig();
            std::string what = std::string("map.partition=") + part;
            for (const auto &[key, value] : settings) {
                c.set(key, value);
                what += std::string(" ") + key + "=" + value;
            }
            c.set("map.partition", part);
            c.set("cores", 4);
            c.set("sim.warmup", 2000);
            c.set("sim.measure", 40000);
            c.set("audit.core", 0);
            c.set("audit.progress_interval", 1000);
            if (!configProblems(c).empty())
                continue;
            auto victim = [&](const std::string &co) {
                c.set("workload", "mcf," + co + "," + co + "," + co);
                return runExperiment(c).timelines.at(0);
            };
            const auto quiet = victim("idle");
            ASSERT_FALSE(quiet.service.empty()) << what;
            const auto audit = core::compareTimelines(quiet, victim("lbm"));
            EXPECT_TRUE(audit.identical) << what << " leaked: "
                                         << audit.detail;
            ++pairs;
        }
    }
    // Every scheduler runs somewhere, so the sweep cannot pass empty.
    EXPECT_GE(pairs, 12u);
}

TEST(LeakageAudit, BaselineLeaksCoRunnerIntensity)
{
    const auto quiet = victimRun("baseline", "idle");
    const auto noisy = victimRun("baseline", "hog");
    const auto audit = core::compareTimelines(quiet, noisy);
    EXPECT_FALSE(audit.identical);
    // The progress curves diverge visibly (Figure 4's red vs blue).
    EXPECT_GT(audit.maxProgressSkewPct, 5.0);
}

TEST(LeakageAudit, FsPrefetchVictimPrefetchesStayPrivate)
{
    // The prefetch optimisation must not reintroduce a channel: the
    // victim's own prefetches ride its own dummy slots only.
    Config c = defaultConfig();
    c.merge(schemeConfig("fs_rp_prefetch"));
    c.set("cores", 8);
    c.set("sim.warmup", 0);
    c.set("sim.measure", 40000);
    c.set("audit.core", 0);

    c.set("workload", "libquantum,idle,idle,idle,idle,idle,idle,idle");
    const auto quiet = runExperiment(c).timelines.at(0);
    c.set("workload", "libquantum,hog,hog,hog,hog,hog,hog,hog");
    const auto noisy = runExperiment(c).timelines.at(0);
    const auto audit = core::compareTimelines(quiet, noisy);
    EXPECT_TRUE(audit.identical) << audit.detail;
}

// -- empirical leakage meter (covert queueing channel) -------------

namespace {

leakage::LeakageReport
covertChannelRun(const std::string &scheme)
{
    Config c = defaultConfig();
    c.merge(schemeConfig(scheme));
    // Receiver probe on the audited core 0, modulated senders on the
    // other seven (same protocol as bench/fig_leakage, shorter run).
    c.set("workload", "probe,modsender,modsender,modsender,modsender,"
                      "modsender,modsender,modsender");
    c.set("cores", 8);
    c.set("sim.warmup", 0);
    c.set("sim.measure", 120000);
    c.set("audit.core", 0);
    c.set("leak.window", 1500);
    c.set("leak.secret_seed", 0xC0FFEE);
    c.set("leak.secret_bits", 32);
    c.set("leak.skip_windows", 2);
    const ExperimentResult r = runExperiment(c);
    return leakage::analyzeLeakage(
        r.timelines.at(0), leakage::ChannelParams::fromConfig(c));
}

} // namespace

TEST(CovertChannel, FrFcfsDecodesTheSecret)
{
    // The attack works against the non-secure baseline: MI clears the
    // shuffle noise band and the blind decoder beats chance soundly.
    const auto rep = covertChannelRun("baseline");
    ASSERT_GT(rep.windows, 30u);
    EXPECT_GT(rep.mi.pluginBits, rep.mi.shuffleMaxBits);
    EXPECT_GT(rep.mi.correctedBits, 0.3);
    EXPECT_LT(rep.rawBer, 0.25);
    EXPECT_LT(rep.votedBer, 0.20);
    EXPECT_GT(rep.bitsPerSecond, 0.0);
}

class CovertChannelSecure : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CovertChannelSecure, SchedulerClosesTheChannel)
{
    // Same attack, secure scheduler: the MI estimate sits within the
    // estimator's noise of zero and the decoder is reduced to a coin
    // flip (its all-equal-latency degenerate decode makes the BER the
    // observed fraction of 1-bits).
    const auto rep = covertChannelRun(GetParam());
    ASSERT_GT(rep.windows, 30u);
    EXPECT_LT(rep.mi.correctedBits, 0.05);
    EXPECT_GT(rep.rawBer, 0.35);
    EXPECT_LT(rep.rawBer, 0.65);
    EXPECT_GT(rep.votedBer, 0.35);
    EXPECT_LT(rep.votedBer, 0.65);
}

INSTANTIATE_TEST_SUITE_P(SecureSchemes, CovertChannelSecure,
                         ::testing::Values("fs_rp", "fs_bp", "fs_np",
                                           "fs_reordered_bp", "tp_bp",
                                           "tp_np"));

// -- trained near-capacity attacker (leak.code.*) ------------------

namespace {

/**
 * The bench/fig_leakage attacker protocol at integration-test scale:
 * balanced secret (source entropy exactly 1 bit/window), 9-pilot
 * preamble (prime 41-window frame), adaptive timing and guard.
 */
leakage::LeakageReport
attackerRun(const std::string &scheme, uint64_t window,
            uint64_t measure)
{
    Config c = defaultConfig();
    c.merge(schemeConfig(scheme));
    c.set("workload", "probe,modsender,modsender,modsender,modsender,"
                      "modsender,modsender,modsender");
    c.set("cores", 8);
    c.set("sim.warmup", 0);
    c.set("sim.measure", measure);
    c.set("audit.core", 0);
    c.set("leak.window", window);
    c.set("leak.secret_seed", 0xC0FFF2);
    c.set("leak.secret_bits", 32);
    c.set("leak.skip_windows", 2);
    c.set("leak.code.preamble", 9);
    const ExperimentResult r = runExperiment(c);
    return leakage::analyzeLeakage(
        r.timelines.at(0), leakage::ChannelParams::fromConfig(c));
}

} // namespace

TEST(NearCapacityAttacker, FrFcfsReaches80PercentOfBound)
{
    // The acceptance gate of the attacker upgrade, as an exit code:
    // against FR-FCFS the trained decoder must realise at least 80%
    // of the Gong-Kiyavash closed-form bound (1 bit/window here —
    // min(source entropy, log2(1 + queue occupancy)) with a balanced
    // 1-bit-per-window secret), where the old blind meter managed as
    // little as ~30% under partitioning.
    const auto rep = attackerRun("baseline", 2000, 480000);
    ASSERT_TRUE(rep.attackerActive);
    ASSERT_GT(rep.windows, 200u);
    EXPECT_TRUE(rep.modelUsable);
    const double boundBitsPerWindow = 1.0;
    EXPECT_GE(rep.attackerBitsPerWindow,
              0.80 * boundBitsPerWindow)
        << rep.toString();
    // And it actually reads the secret, not just the statistic.
    EXPECT_LT(rep.mlVotedBer, 0.05);
    EXPECT_LT(rep.mlRawBer, 0.10);
    EXPECT_GT(rep.attackerBitsPerSecond, 100000.0);
}

class AttackerVsSecure : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AttackerVsSecure, TrainedAttackerStaysAtNoiseFloor)
{
    // The same near-capacity attacker mounted on a certified scheme
    // must be *refused* by its own model-validity gate: pilot
    // separation under the usability floor, both MI meters at the
    // shuffle noise floor, and — because the refused decoder outputs
    // all zeros against a balanced secret — a voted BER of exactly
    // one half. A deterministic coin flip, not a lucky one.
    // (Full fig_leakage run length: the separation statistic needs
    // enough pilots per class for its sampling noise to sit clearly
    // under the usability floor — tp/none completes only ~2 probes
    // per window, the sparsest channel in the sweep.)
    const auto rep = attackerRun(GetParam(), 1500, 480000);
    ASSERT_TRUE(rep.attackerActive);
    ASSERT_GT(rep.windows, 100u);
    EXPECT_FALSE(rep.modelUsable) << "pilot d' "
                                  << rep.pilotSeparation;
    EXPECT_LT(rep.llrMi.correctedBits, 0.05);
    EXPECT_LT(rep.mi.correctedBits, 0.05);
    EXPECT_DOUBLE_EQ(rep.mlVotedBer, 0.5);
    EXPECT_GT(rep.mlRawBer, 0.35);
    EXPECT_LT(rep.mlRawBer, 0.65);
}

INSTANTIATE_TEST_SUITE_P(SecureSchemes, AttackerVsSecure,
                         ::testing::Values("fs_bp", "tp_np"));

TEST(LeakageAudit, VictimSeesSameServiceRegardlessOfOwnPosition)
{
    // Swapping which co-runner profile sits on which core must not
    // change the victim's timeline either (slot assignment is by
    // domain id, not by behaviour).
    Config c = defaultConfig();
    c.merge(schemeConfig("fs_rp"));
    c.set("cores", 8);
    c.set("sim.warmup", 0);
    c.set("sim.measure", 40000);
    c.set("audit.core", 0);
    c.set("workload", "mcf,hog,idle,hog,idle,hog,idle,hog");
    const auto a = runExperiment(c).timelines.at(0);
    c.set("workload", "mcf,idle,hog,idle,hog,idle,hog,idle");
    const auto b = runExperiment(c).timelines.at(0);
    const auto audit = core::compareTimelines(a, b);
    EXPECT_TRUE(audit.identical) << audit.detail;
}
