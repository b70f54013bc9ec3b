/**
 * @file
 * Campaign-level crash resume: a killed campaign leaves behind an
 * on-disk journal of completed runs (ckpt.dir/<fingerprint>.done) and
 * possibly a mid-run snapshot; a rerun must serve the completed
 * fingerprints from the journal byte-identically, re-execute only the
 * missing ones, ignore stale or damaged journal entries with a
 * warning, and report all of it distinctly in the summary accounting
 * (executed vs memoized vs journal hits vs snapshot resumes).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "util/serialize.hh"

using namespace memsec;
using namespace memsec::harness;

namespace {

std::string
makeTempDir()
{
    std::string tmpl = ::testing::TempDir() + "memsec-resume-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    EXPECT_NE(mkdtemp(buf.data()), nullptr);
    return std::string(buf.data());
}

Config
smallConfig(const std::string &scheme, const std::string &workload,
            uint64_t seed, const std::string &ckptDir)
{
    Config c = defaultConfig();
    c.merge(schemeConfig(scheme));
    c.set("workload", workload);
    c.set("cores", 2);
    c.set("seed", seed);
    c.set("sim.warmup", 500);
    c.set("sim.measure", 4000);
    c.set("audit.core", 0);
    c.set("audit.progress_interval", 1000);
    if (!ckptDir.empty())
        c.set("ckpt.dir", ckptDir);
    return c;
}

std::vector<std::pair<std::string, Config>>
fourRuns(const std::string &dir)
{
    return {{"fs_rp/mcf", smallConfig("fs_rp", "mcf", 1, dir)},
            {"baseline/mcf", smallConfig("baseline", "mcf", 1, dir)},
            {"tp_bp/mcf", smallConfig("tp_bp", "mcf", 1, dir)},
            {"fs_np/milc", smallConfig("fs_np", "milc", 2, dir)}};
}

} // namespace

// A campaign killed after N runs, then rerun over the same ckpt.dir:
// the N journalled results are served from disk (byte-identically),
// only the remainder re-executes, and the summary says which is which.
TEST(CampaignResume, KilledCampaignSkipsCompletedFingerprints)
{
    const std::string dir = makeTempDir();
    const auto runs = fourRuns(dir);

    // First campaign "dies" after two completed runs. The runner
    // throws for the rest, which Campaign records as failures —
    // failures must NOT be journalled.
    size_t executedFirst = 0;
    Campaign first([&](const Config &cfg) {
        if (executedFirst >= 2)
            throw std::runtime_error("simulated kill");
        ++executedFirst;
        return runExperiment(cfg);
    });
    for (const auto &[label, cfg] : runs)
        first.add(label, cfg);
    const CampaignSummary &s1 = first.run();
    EXPECT_EQ(executedFirst, 2u);
    EXPECT_EQ(s1.journalHits, 0u);
    EXPECT_EQ(s1.failures, 2u);

    // Rerun the full campaign: the two journalled fingerprints are
    // served from disk, only the two missing ones hit the runner.
    size_t executedSecond = 0;
    Campaign second([&](const Config &cfg) {
        ++executedSecond;
        return runExperiment(cfg);
    });
    for (const auto &[label, cfg] : runs)
        second.add(label, cfg);
    const CampaignSummary &s2 = second.run();
    EXPECT_EQ(executedSecond, 2u);
    EXPECT_EQ(s2.journalHits, 2u);
    EXPECT_EQ(s2.executed, 4u);
    EXPECT_EQ(s2.memoHits, 0u);
    EXPECT_EQ(s2.failures, 0u);
    EXPECT_TRUE(second.outcome(0).fromJournal);
    EXPECT_TRUE(second.outcome(1).fromJournal);
    EXPECT_FALSE(second.outcome(2).fromJournal);
    EXPECT_FALSE(second.outcome(3).fromJournal);

    // Journal-served results must be byte-identical to a fresh
    // execution of the same canonical config.
    Config fresh = runs[0].second;
    fresh.erase("ckpt.dir");
    EXPECT_EQ(resultDigest(second.result(0)),
              resultDigest(runExperiment(fresh)));
}

// Journal hits and in-campaign memo hits are different things and
// must be counted separately: a duplicated config is memoized off its
// primary even when that primary came from the journal.
TEST(CampaignResume, JournalAndMemoAccountingAreDistinct)
{
    const std::string dir = makeTempDir();
    const Config cfg = smallConfig("fs_rp", "mcf", 1, dir);

    {
        Campaign seed;
        seed.add("seed", cfg);
        seed.run();
    }

    size_t executed = 0;
    Campaign c([&](const Config &k) {
        ++executed;
        return runExperiment(k);
    });
    c.add("primary", cfg);
    c.add("duplicate", cfg);
    const CampaignSummary &s = c.run();
    EXPECT_EQ(executed, 0u);
    EXPECT_EQ(s.runs, 2u);
    EXPECT_EQ(s.executed, 1u);
    EXPECT_EQ(s.memoHits, 1u);
    EXPECT_EQ(s.journalHits, 1u);
    EXPECT_TRUE(c.outcome(0).fromJournal);
    EXPECT_TRUE(c.outcome(1).memoized);
    EXPECT_EQ(resultDigest(c.result(0)), resultDigest(c.result(1)));
}

// The fingerprint is computed over the config minus ckpt.*/crash.*
// keys, so a resumed rerun with a different snapshot cadence still
// matches the journal entries the killed campaign wrote.
TEST(CampaignResume, DurabilityKeysDoNotChangeRunIdentity)
{
    Config a = smallConfig("fs_rp", "mcf", 1, "/tmp/somewhere");
    Config b = smallConfig("fs_rp", "mcf", 1, "/tmp/elsewhere");
    b.set("ckpt.interval_cycles", 777);
    b.set("crash.dir", "/tmp/crashes");
    EXPECT_EQ(Campaign::fingerprint(a), Campaign::fingerprint(b));

    Config c = b;
    c.set("seed", 2);
    EXPECT_NE(Campaign::fingerprint(a), Campaign::fingerprint(c));
}

// A journal entry whose embedded fingerprint does not match its
// file name (e.g. copied from another sweep's directory) is stale:
// ignored with a warning, and the run re-executes.
TEST(CampaignResume, StaleJournalEntryIgnoredAndReExecuted)
{
    const std::string dir = makeTempDir();
    const Config cfg = smallConfig("fs_rp", "mcf", 1, dir);
    const std::string fp = Campaign::fingerprint(cfg);
    ASSERT_TRUE(writeFileAtomic(
        dir + "/" + fp + ".done",
        encodeSnapshot("fnv64-0000000000000000", "bogus payload")));

    size_t executed = 0;
    Campaign c([&](const Config &k) {
        ++executed;
        return runExperiment(k);
    });
    c.add("run", cfg);
    const CampaignSummary &s = c.run();
    EXPECT_EQ(executed, 1u);
    EXPECT_EQ(s.journalHits, 0u);
    EXPECT_EQ(s.failures, 0u);
    EXPECT_FALSE(c.outcome(0).fromJournal);

    // The re-execution overwrote the stale entry; a fresh campaign
    // now hits the journal.
    Campaign again;
    again.add("run", cfg);
    EXPECT_EQ(again.run().journalHits, 1u);
}

// A bit-damaged journal entry is rejected by the payload CRC and the
// run re-executes rather than reporting corrupt metrics.
TEST(CampaignResume, CorruptJournalEntryIgnoredAndReExecuted)
{
    const std::string dir = makeTempDir();
    const Config cfg = smallConfig("baseline", "mcf", 1, dir);
    {
        Campaign seed;
        seed.add("seed", cfg);
        seed.run();
    }
    const std::string path =
        dir + "/" + Campaign::fingerprint(cfg) + ".done";
    std::string bytes;
    ASSERT_TRUE(readFileBytes(path, bytes));
    bytes[bytes.size() / 2] ^= 0x04;
    ASSERT_TRUE(writeFileAtomic(path, bytes));

    size_t executed = 0;
    Campaign c([&](const Config &k) {
        ++executed;
        return runExperiment(k);
    });
    c.add("run", cfg);
    const CampaignSummary &s = c.run();
    EXPECT_EQ(executed, 1u);
    EXPECT_EQ(s.journalHits, 0u);
    EXPECT_TRUE(c.outcome(0).ok);
}

// An entry written by the previous record layout — untagged "result"
// section, two extra u64 kernel counters after cyclesSkipped — under
// a matching fingerprint must not decode shifted: it is warned about,
// the run re-executes, and the campaign reports the fresh digest.
TEST(CampaignResume, OldLayoutJournalEntryIgnoredAndReExecuted)
{
    const std::string dir = makeTempDir();
    const Config cfg = smallConfig("fs_rp", "mcf", 1, dir);
    Config plain = cfg;
    plain.erase("ckpt.dir");
    const ExperimentResult fresh = runExperiment(plain);

    // Forge the old layout from the current one. Sentinel kernel
    // counters mark where the two removed fields sat, and a perturbed
    // metric makes a wrongly served entry visible in the digest.
    ExperimentResult legacy = fresh;
    legacy.meanReadLatency += 1.0;
    legacy.cyclesExecuted = 0x1111222233334444ull;
    legacy.cyclesSkipped = 0x5555666677778888ull;
    Serializer cur;
    serializeResult(cur, legacy);
    Deserializer tag(cur.data());
    tag.section("result/v2");
    std::string body = cur.data().substr(tag.offset());
    Serializer marks;
    marks.io(legacy.cyclesExecuted, legacy.cyclesSkipped);
    const size_t at = body.find(marks.data());
    ASSERT_NE(at, std::string::npos);
    body.insert(at + marks.size(), std::string(16, '\0'));
    Serializer old;
    old.section("result");
    ASSERT_TRUE(writeFileAtomic(
        dir + "/" + Campaign::fingerprint(cfg) + ".done",
        encodeSnapshot(Campaign::fingerprint(cfg), old.data() + body)));

    size_t executed = 0;
    Campaign c([&](const Config &k) {
        ++executed;
        return runExperiment(k);
    });
    c.add("run", cfg);
    testing::internal::CaptureStderr();
    const CampaignSummary &s = c.run();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("journal entry"), std::string::npos) << err;
    EXPECT_NE(err.find("re-executing run"), std::string::npos) << err;
    EXPECT_EQ(executed, 1u);
    EXPECT_EQ(s.journalHits, 0u);
    EXPECT_FALSE(c.outcome(0).fromJournal);
    EXPECT_EQ(resultDigest(c.result(0)), resultDigest(fresh));
}

// A run continued from a mid-flight snapshot is flagged in its result
// and counted in the summary, and still digests identically to an
// uninterrupted run.
TEST(CampaignResume, SnapshotResumeCountedInSummary)
{
    const std::string dir = makeTempDir();
    const Config cfg = smallConfig("fs_rp", "mcf", 1, dir);
    const std::string fp = Campaign::fingerprint(cfg);

    Config plain = cfg;
    plain.erase("ckpt.dir");
    const ExperimentResult uninterrupted = runExperiment(plain);

    {
        ExperimentSystem sys(cfg);
        sys.step(2000);
        ASSERT_FALSE(sys.done());
        Serializer s;
        sys.saveState(s);
        ASSERT_TRUE(writeFileAtomic(dir + "/" + fp + ".snap",
                                    encodeSnapshot(fp, s.data())));
    }

    Campaign c;
    c.add("resumed", cfg);
    const CampaignSummary &s = c.run();
    EXPECT_EQ(s.snapshotResumes, 1u);
    EXPECT_EQ(s.journalHits, 0u);
    EXPECT_TRUE(c.result(0).resumedFromSnapshot);
    EXPECT_EQ(resultDigest(c.result(0)), resultDigest(uninterrupted));
}
