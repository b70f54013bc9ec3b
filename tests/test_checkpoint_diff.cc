/**
 * @file
 * Differential proof that checkpoints are invisible: every scheduler
 * x partitioning combination is run twice from identical seeds — once
 * uninterrupted, once chopped into chunks with the full system state
 * serialized at each boundary and restored into a freshly constructed
 * ExperimentSystem — and the full-precision result digests must
 * compare equal byte for byte. Any component whose saveState() misses
 * a unit of mutable state, or whose restoreState() rebinds a pointer
 * wrongly, shows up here as a digest mismatch.
 *
 * Also covers the runExperiment()-level snapshot lifecycle (ckpt.dir
 * + ckpt.interval_cycles: periodic atomic writes, resume from a
 * .snap file, cleanup on completion) and the four durability fault
 * kinds, each of which must surface as a structured recoverable
 * SimError — never as a silently wrong digest.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/campaign.hh"
#include "cpu/core_model.hh"
#include "harness/experiment.hh"
#include "mem/memory_controller.hh"
#include "sched/frfcfs.hh"
#include "sched/fs.hh"
#include "util/serialize.hh"

using namespace memsec;
using namespace memsec::harness;

namespace {

Config
diffConfig(const std::string &scheme, const std::string &workload,
           uint64_t seed)
{
    Config c = defaultConfig();
    c.merge(schemeConfig(scheme));
    c.set("workload", workload);
    c.set("cores", 4);
    c.set("seed", seed);
    c.set("sim.warmup", 1500);
    c.set("sim.measure", 12000);
    // Audit one core so the digest covers the noninterference
    // timeline (per-request service + progress checkpoints), not
    // just the aggregate metrics.
    c.set("audit.core", 0);
    c.set("audit.progress_interval", 1000);
    return c;
}

/** Fresh unique directory for journal/snapshot files. */
std::string
makeTempDir()
{
    std::string tmpl = ::testing::TempDir() + "memsec-ckpt-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char *dir = mkdtemp(buf.data());
    EXPECT_NE(dir, nullptr) << "mkdtemp failed for " << tmpl;
    return std::string(buf.data());
}

bool
fileExists(const std::string &path)
{
    std::string bytes;
    return readFileBytes(path, bytes);
}

/**
 * Serialize `sys` and restore the bytes into a freshly constructed
 * system. The restored system must save back exactly the bytes it
 * was restored from: a field read but not written (or written from
 * derived state the restore did not rebuild) fails here even when it
 * never moves a result digest.
 */
std::unique_ptr<ExperimentSystem>
restoreIntoFresh(const Config &cfg, const ExperimentSystem &sys,
                 const std::string &where)
{
    Serializer s;
    sys.saveState(s);
    auto fresh = std::make_unique<ExperimentSystem>(cfg);
    Deserializer d(s.data());
    fresh->restoreState(d);
    Serializer again;
    fresh->saveState(again);
    const std::string &a = s.data();
    const std::string &b = again.data();
    const size_t common = std::min(a.size(), b.size());
    const size_t at = static_cast<size_t>(
        std::mismatch(a.begin(), a.begin() + common, b.begin()).first -
        a.begin());
    EXPECT_TRUE(a == b) << where << ": re-save of " << b.size()
                        << " bytes differs from the " << a.size()
                        << " restored bytes at offset " << at;
    return fresh;
}

/**
 * Run to completion, but every `chunk` cycles serialize the complete
 * system state and carry on in a brand-new ExperimentSystem restored
 * from those bytes. Each restore crosses a full construct/restore
 * boundary, exactly what a killed-and-resumed process does.
 */
ExperimentResult
runWithRestores(const Config &cfg, unsigned snapshots)
{
    auto sys = std::make_unique<ExperimentSystem>(cfg);
    const Cycle total =
        cfg.getUint("sim.warmup") + cfg.getUint("sim.measure");
    const Cycle chunk = total / (snapshots + 1) + 1;
    unsigned restores = 0;
    while (!sys->done()) {
        sys->step(chunk);
        if (sys->done())
            break;
        sys = restoreIntoFresh(cfg, *sys, "cycle " +
                                              std::to_string(sys->now()));
        ++restores;
    }
    EXPECT_GT(restores, 0u)
        << "run finished before any snapshot boundary; the "
           "comparison proves nothing";
    return sys->finish();
}

/** A state of the system a chop can land in. */
using ChopPredicate = std::function<bool(ExperimentSystem &)>;

/**
 * Chops that land inside an interval: the cycles, from one probe run
 * stepped cycle by cycle, at which `inside` has held for four cycles
 * in a row (one per interval; with `every` > 1, one per `every`
 * intervals). Then the real run steps straight to each chop in one
 * chunk, with fast-forward free to jump, checks it is still inside,
 * and carries on in a fresh system restored from the serialized
 * state.
 */
void
expectIdenticalChoppedInside(const Config &cfg, const ChopPredicate &inside,
                             const std::string &what, unsigned every = 1)
{
    std::vector<Cycle> chops;
    {
        ExperimentSystem probe(cfg);
        unsigned held = 0;
        unsigned intervals = 0;
        while (!probe.done()) {
            probe.step(1);
            held = inside(probe) ? held + 1 : 0;
            if (held == 4 && !probe.done() && intervals++ % every == 0)
                chops.push_back(probe.now());
        }
    }
    ASSERT_GE(chops.size(), 2u) << what << ": too few intervals to chop";

    auto sys = std::make_unique<ExperimentSystem>(cfg);
    for (Cycle chop : chops) {
        sys->step(chop - sys->now());
        ASSERT_EQ(sys->now(), chop) << what;
        ASSERT_TRUE(inside(*sys)) << what << ": chop at " << chop;
        sys = restoreIntoFresh(cfg, *sys,
                               what + ": chop at " + std::to_string(chop));
    }
    while (!sys->done())
        sys->step(100000);
    EXPECT_EQ(resultDigest(runExperiment(cfg)),
              resultDigest(sys->finish()))
        << what;
}

void
expectIdentical(const Config &cfg, const std::string &what)
{
    const ExperimentResult plain = runExperiment(cfg);
    const ExperimentResult restored = runWithRestores(cfg, 3);
    EXPECT_EQ(resultDigest(plain), resultDigest(restored)) << what;
}

void
expectIdentical(const std::string &scheme, const std::string &workload,
                uint64_t seed)
{
    expectIdentical(diffConfig(scheme, workload, seed),
                    scheme + "/" + workload +
                        " seed=" + std::to_string(seed));
}

} // namespace

// -- FS (fixed service) across all three partitioning modes --------

TEST(CheckpointDiff, FsRankPartition)
{
    expectIdentical("fs_rp", "mcf", 1);
    expectIdentical("fs_rp", "libquantum", 42);
}

TEST(CheckpointDiff, FsBankPartition)
{
    expectIdentical("fs_bp", "milc", 7);
}

TEST(CheckpointDiff, FsNoPartition)
{
    expectIdentical("fs_np", "mcf", 1);
}

// The energy variants exercise ACT suppression and precharge
// power-down, whose rank residency counters must survive a restore.
TEST(CheckpointDiff, FsEnergyVariants)
{
    expectIdentical("fs_rp_powerdown", "mcf", 1);
}

// Residency is charged lazily, so a restore must re-anchor every rank
// at the first cycle after it; chop where a rank is refreshing and
// where FS has powered one down.
TEST(CheckpointDiff, ChopInsideRefresh)
{
    Config c = diffConfig("fs_rp", "mcf", 1);
    c.set("dram.refresh", true);
    ASSERT_TRUE(c.getBool("sim.fastforward"));
    expectIdenticalChoppedInside(
        c,
        [](ExperimentSystem &sys) {
            const dram::DramSystem &dram = sys.controller(0).dram();
            for (unsigned r = 0; r < dram.numRanks(); ++r) {
                if (sys.now() < dram.rank(r).refreshEndsAt())
                    return true;
            }
            return false;
        },
        "fs_rp/mcf seed=1 dram.refresh=true");
}

TEST(CheckpointDiff, ChopInsidePowerDown)
{
    const Config c = diffConfig("fs_rp_powerdown", "mcf", 1);
    ASSERT_TRUE(c.getBool("sim.fastforward"));
    expectIdenticalChoppedInside(
        c,
        [](ExperimentSystem &sys) {
            const auto &fs = dynamic_cast<const sched::FsScheduler &>(
                sys.controller(0).scheduler());
            const unsigned ranks = sys.controller(0).dram().numRanks();
            for (unsigned r = 0; r < ranks; ++r) {
                if (fs.poweredDownUntil(r) > sys.now())
                    return true;
            }
            return false;
        },
        "fs_rp_powerdown/mcf seed=1");
}

TEST(CheckpointDiff, ChopWhileDomainQueueFull)
{
    // A core blocked on a full queue sleeps until the controller frees
    // space and pokes it. Chop while some domain's queue is full, so
    // the run restores across a core asleep on that poke.
    const Config c = diffConfig("fs_rp", "hog", 1);
    ASSERT_TRUE(c.getBool("sim.fastforward"));
    expectIdenticalChoppedInside(
        c,
        [](ExperimentSystem &sys) {
            const mem::MemoryController &mc = sys.controller(0);
            for (DomainId d = 0; d < mc.numDomains(); ++d) {
                if (!mc.canAccept(d) ||
                    !mc.canAccept(d, mem::ReqType::Write))
                    return true;
            }
            return false;
        },
        "fs_rp/hog seed=1 domain queue full", 16);
}

TEST(CheckpointDiff, ChopWhileCoreSleepsMidGap)
{
    // A core whose full ROB only retires its head's gap sleeps and is
    // caught up in closed form. Chop while one is asleep mid-gap for
    // at least its next whole tick, with progress marks every 7
    // instructions so some are still due inside the gap.
    Config c = diffConfig("fs_rp", "mcf", 1);
    c.set("audit.progress_interval", 7);
    ASSERT_TRUE(c.getBool("sim.fastforward"));
    const unsigned cores = static_cast<unsigned>(c.getUint("cores"));
    expectIdenticalChoppedInside(
        c,
        [cores](ExperimentSystem &sys) {
            for (unsigned i = 0; i < cores; ++i) {
                const cpu::CoreModel &core = sys.core(i);
                if (core.gapLeft() > 0 &&
                    core.quietSubCycles() >= kDefaultCpuMult)
                    return true;
            }
            return false;
        },
        "fs_rp/mcf seed=1 core asleep mid-gap", 8);
}

TEST(CheckpointDiff, FsWithPrefetch)
{
    expectIdentical("fs_rp_prefetch", "libquantum", 1);
}

// -- FS-reordered across two partitioning modes --------------------

TEST(CheckpointDiff, FsReorderedBankPartition)
{
    expectIdentical("fs_reordered_bp", "mcf", 1);
}

TEST(CheckpointDiff, FsReorderedRankPartition)
{
    Config c = diffConfig("fs_reordered_bp", "milc", 42);
    c.set("map.partition", "rank");
    expectIdentical(c, "fs_reordered + rank partition");
}

// -- Temporal partitioning across both partitioning modes ----------

TEST(CheckpointDiff, TpBankPartition)
{
    expectIdentical("tp_bp", "mcf", 1);
    expectIdentical("tp_bp", "astar", 42);
}

TEST(CheckpointDiff, TpNoPartition)
{
    expectIdentical("tp_np", "xalancbmk", 7);
}

// -- FRFCFS baseline: no partition and channel partition -----------

TEST(CheckpointDiff, FrFcfsBaseline)
{
    expectIdentical("baseline", "mcf", 1);
    expectIdentical("baseline_prefetch", "mcf", 1);
    // The scheduler's idle-skip hint is derived state: a restore must
    // start without it, refresh deadlines included.
    Config refresh = diffConfig("baseline", "mcf", 1);
    refresh.set("dram.refresh", true);
    expectIdentical(refresh, "baseline/mcf seed=1 dram.refresh=true");
}

TEST(CheckpointDiff, FrFcfsChopMidDrain)
{
    // The baseline picks from the controller's bank index, which is
    // derived and never serialized: a restore refiles every queued
    // request. Chop while the baseline drains writes with reads and
    // writes both queued, so the pick resumes mid-drain from a
    // rebuilt index.
    const Config c = diffConfig("baseline", "lbm", 1);
    ASSERT_TRUE(c.getBool("sim.fastforward"));
    expectIdenticalChoppedInside(
        c,
        [](ExperimentSystem &sys) {
            mem::MemoryController &mc = sys.controller(0);
            const auto &sched = dynamic_cast<const sched::FrFcfsScheduler &>(
                mc.scheduler());
            const mem::QueueTotals &t = mc.queueTotals();
            return sched.engine().drainingWrites() && t.reads > 0 &&
                   t.writes > 0;
        },
        "baseline/lbm seed=1 draining writes");
}

TEST(CheckpointDiff, FrFcfsChannelPartition)
{
    expectIdentical("channel_part", "mcf", 1);
}

// -- Fault injection: injector PRNG state must survive a restore ---

TEST(CheckpointDiff, FaultInjectionStateSurvivesRestore)
{
    for (Cycle magnitude : {Cycle{1}, Cycle{20}}) {
        Config c = diffConfig("fs_rp", "mcf", 1);
        c.set("fault.kind", "slot-skew");
        c.set("fault.magnitude", magnitude);
        expectIdentical(c, "fs_rp with slot-skew injector, magnitude " +
                               std::to_string(magnitude));
    }
}

// -- Open-loop traffic: arrival processes and client tags ----------

TEST(CheckpointDiff, OpenLoopTraffic)
{
    Config c = diffConfig("fs_rp", "cloud", 1);
    c.set("traffic.process", "mmpp");
    c.set("traffic.rate", 6.0);
    c.set("traffic.clients", 16);
    expectIdentical(c, "fs_rp/cloud seed=1 traffic.process=mmpp");
}

// -- Two channels: one controller and DRAM system each -------------

TEST(CheckpointDiff, TwoChannels)
{
    Config c = diffConfig("fs_rp", "mcf", 1);
    c.set("dram.channels", 2);
    expectIdentical(c, "fs_rp/mcf seed=1 dram.channels=2");
}

// -- Three-way: naive, fast-forward, and restored-with-fast-forward
//    must all land on the same digest --------------------------------

TEST(CheckpointDiff, ThreeWayNaiveFastForwardRestored)
{
    Config c = diffConfig("fs_np", "mcf", 1);
    c.set("sim.fastforward", false);
    const ExperimentResult naive = runExperiment(c);
    c.set("sim.fastforward", true);
    const ExperimentResult fast = runExperiment(c);
    const ExperimentResult restored = runWithRestores(c, 4);
    EXPECT_EQ(resultDigest(naive), resultDigest(fast));
    EXPECT_EQ(resultDigest(naive), resultDigest(restored));
    // The restored run must still exercise the fast path, or the
    // fast-forward arm of this three-way proves nothing.
    EXPECT_GT(restored.cyclesSkipped, 0u);
}

// A five-record ROB that wraps every few dispatches, an odd retire
// width and CPU multiplier, with the prefetcher off and on: the ring
// ROB and the flattened core must give the naive, fast-forward and
// restored runs one digest.
TEST(CheckpointDiff, ThreeWayNonDefaultCore)
{
    for (const char *scheme : {"fs_rp", "fs_rp_prefetch", "baseline",
                               "baseline_prefetch"}) {
        Config c = diffConfig(scheme, "mix1", 3);
        c.set("core.rob", 5);
        c.set("core.retire_width", 3);
        c.set("core.cpu_mult", 3);
        c.set("sim.fastforward", false);
        const ExperimentResult naive = runExperiment(c);
        c.set("sim.fastforward", true);
        const ExperimentResult fast = runExperiment(c);
        const ExperimentResult restored = runWithRestores(c, 4);
        EXPECT_EQ(resultDigest(naive), resultDigest(fast)) << scheme;
        EXPECT_EQ(resultDigest(naive), resultDigest(restored)) << scheme;
        EXPECT_EQ(naive.cyclesSkipped, 0u) << scheme;
        EXPECT_GT(fast.cyclesSkipped, 0u) << scheme;
    }
}

// -- runExperiment()-level snapshot lifecycle ----------------------

// Periodic snapshot writes must not perturb the run, and the .snap
// file must be cleaned up once the run completes.
TEST(CheckpointDiff, PeriodicSnapshotsAreInvisible)
{
    const Config base = diffConfig("fs_rp", "mcf", 1);
    const ExperimentResult plain = runExperiment(base);

    const std::string dir = makeTempDir();
    Config c = base;
    c.set("ckpt.dir", dir);
    c.set("ckpt.interval_cycles", 3000);
    const ExperimentResult snapped = runExperiment(c);

    EXPECT_EQ(resultDigest(plain), resultDigest(snapped));
    EXPECT_FALSE(snapped.resumedFromSnapshot);
    const std::string snapPath =
        dir + "/" + Campaign::fingerprint(base) + ".snap";
    EXPECT_FALSE(fileExists(snapPath))
        << "completed run left its mid-run snapshot behind";
}

// A pre-existing .snap file (a killed run's last checkpoint) must be
// picked up, flagged as a resume, and produce the uninterrupted
// run's exact digest.
TEST(CheckpointDiff, ResumeFromSnapshotFileIsByteIdentical)
{
    const Config base = diffConfig("tp_bp", "mcf", 1);
    const ExperimentResult plain = runExperiment(base);

    const std::string dir = makeTempDir();
    const std::string fp = Campaign::fingerprint(base);
    {
        ExperimentSystem sys(base);
        sys.step(5000);
        ASSERT_FALSE(sys.done());
        Serializer s;
        sys.saveState(s);
        ASSERT_TRUE(writeFileAtomic(dir + "/" + fp + ".snap",
                                    encodeSnapshot(fp, s.data())));
    }
    Config c = base;
    c.set("ckpt.dir", dir);
    const ExperimentResult resumed = runExperiment(c);
    EXPECT_TRUE(resumed.resumedFromSnapshot);
    EXPECT_EQ(resultDigest(plain), resultDigest(resumed));
}

// -- Durability faults: every corruption is detected and reported --

namespace {

/**
 * Seed ckpt.dir with a valid mid-run snapshot, then run with a
 * snapshot-corrupting fault kind armed. The load must reject the
 * damaged bytes with the expected structured category, fall back to
 * a clean from-scratch run, and still produce the uninterrupted
 * run's observables.
 */
void
expectCorruptionDetected(const std::string &kind,
                         const std::string &category)
{
    const Config base = diffConfig("fs_rp", "mcf", 1);
    const ExperimentResult clean = runExperiment(base);

    const std::string dir = makeTempDir();
    Config c = base;
    c.set("ckpt.dir", dir);
    c.set("fault.kind", kind);
    c.set("fault.seed", 99);
    // fault.* keys are part of the run's identity (only ckpt.*/crash.*
    // are stripped), so the seeded snapshot is keyed by the faulted
    // config's fingerprint.
    const std::string fp = Campaign::fingerprint(c);
    {
        ExperimentSystem sys(base);
        sys.step(5000);
        Serializer s;
        sys.saveState(s);
        ASSERT_TRUE(writeFileAtomic(dir + "/" + fp + ".snap",
                                    encodeSnapshot(fp, s.data())));
    }
    const ExperimentResult res = runExperiment(c);

    ASSERT_FALSE(res.simErrors.empty())
        << kind << ": corruption was not reported";
    EXPECT_EQ(res.simErrors.front().category, category) << kind;
    EXPECT_FALSE(res.resumedFromSnapshot)
        << kind << ": restored from corrupt bytes";
    EXPECT_EQ(res.faultsInjected, 1u) << kind;
    // Recovery means a correct from-scratch run, not a wrong one.
    EXPECT_EQ(res.cyclesRun, clean.cyclesRun) << kind;
    EXPECT_EQ(res.ipc, clean.ipc) << kind;
    EXPECT_EQ(res.meanReadLatency, clean.meanReadLatency) << kind;
    EXPECT_EQ(res.effectiveBandwidth, clean.effectiveBandwidth) << kind;
}

} // namespace

TEST(CheckpointDiff, TruncatedSnapshotDetected)
{
    expectCorruptionDetected("snapshot-truncate", "snapshot-truncate");
}

TEST(CheckpointDiff, BitFlippedSnapshotCaughtByCrc)
{
    expectCorruptionDetected("snapshot-bitflip", "snapshot-corrupt");
}

TEST(CheckpointDiff, VersionMismatchDetected)
{
    expectCorruptionDetected("snapshot-version", "snapshot-version");
}

TEST(CheckpointDiff, StaleFingerprintDetected)
{
    expectCorruptionDetected("journal-stale", "snapshot-stale");
}

// A snapshot of an older scheduler layout passes every container
// check (magic, CRC, version, fingerprint) and fails only when the
// restore reaches the scheduler's renamed section tag, after the
// sections before it were already applied. The run must still start
// again from cycle 0 on a clean system and differ from the
// uninterrupted run only by the reported rejection.
TEST(CheckpointDiff, OldSchedulerLayoutRestartsFromScratch)
{
    const std::pair<const char *, const char *> points[] = {
        {"fs_rp", "fs/v3"},
        {"fs_reordered_bp", "fs-reordered/v3"},
        {"tp_bp", "tp/v3"},
    };
    for (const auto &[scheme, tag] : points) {
        const Config base = diffConfig(scheme, "mcf", 1);
        const ExperimentResult clean = runExperiment(base);

        const std::string dir = makeTempDir();
        const std::string fp = Campaign::fingerprint(base);
        {
            ExperimentSystem sys(base);
            sys.step(5000);
            Serializer s;
            sys.saveState(s);
            // Same-length stand-in for the previous layout's tag.
            std::string payload = s.data();
            std::string oldTag = tag;
            --oldTag.back();
            const size_t at = payload.find(tag);
            ASSERT_NE(at, std::string::npos) << scheme;
            payload.replace(at, oldTag.size(), oldTag);
            ASSERT_TRUE(writeFileAtomic(dir + "/" + fp + ".snap",
                                        encodeSnapshot(fp, payload)));
        }
        Config c = base;
        c.set("ckpt.dir", dir);
        ExperimentResult res = runExperiment(c);

        EXPECT_FALSE(res.resumedFromSnapshot) << scheme;
        ASSERT_EQ(res.simErrors.size(), 1u) << scheme;
        EXPECT_EQ(res.simErrors.front().category, "snapshot-corrupt")
            << scheme;
        EXPECT_NE(res.simErrors.front().message.find(tag),
                  std::string::npos)
            << scheme << ": " << res.simErrors.front().message;
        res.simErrors.clear();
        EXPECT_EQ(resultDigest(res), resultDigest(clean)) << scheme;
    }
}
