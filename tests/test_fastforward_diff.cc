/**
 * @file
 * Differential proof that the idle-skip kernel is invisible: every
 * scheduler x partitioning combination is run twice from identical
 * seeds — once with the naive per-cycle tick loop, once with
 * fast-forward enabled — and the full-precision result digests
 * (hexfloat metrics, noninterference timelines, per-rule
 * TimingChecker totals, recorded SimErrors) must compare equal
 * byte for byte. Any hint that skips an observable cycle, or any
 * fastForward() that misses a unit of per-cycle accounting, shows
 * up here as a digest mismatch.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/campaign.hh"
#include "harness/experiment.hh"

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

struct DiffOutcome
{
    ExperimentResult naive;
    ExperimentResult fast;
};

DiffOutcome
runBothModes(Config cfg)
{
    DiffOutcome out;
    cfg.set("sim.fastforward", false);
    out.naive = runExperiment(cfg);
    cfg.set("sim.fastforward", true);
    out.fast = runExperiment(cfg);
    return out;
}

/** `overlay` is merged last, for design points no scheme names. */
void
expectIdentical(const std::string &scheme, const std::string &workload,
                uint64_t seed, const Config &overlay = Config())
{
    Config c = diffConfig(scheme, workload, seed);
    c.merge(overlay);
    const DiffOutcome o = runBothModes(c);
    EXPECT_EQ(resultDigest(o.naive), resultDigest(o.fast))
        << scheme << "/" << workload << " seed=" << seed << " "
        << overlay.toString();
    // The naive run must not have skipped anything, or the
    // comparison proves nothing.
    EXPECT_EQ(o.naive.cyclesSkipped, 0u) << scheme << "/" << workload;
}

} // namespace

// -- FS (fixed service) across all three partitioning modes --------

TEST(FastForwardDiff, FsRankPartition)
{
    expectIdentical("fs_rp", "mcf", 1);
    expectIdentical("fs_rp", "libquantum", 42);
    // SLA-weighted slot table: domain 0 owns two slots per frame.
    Config weighted;
    weighted.set("fs.slot_weights", "2,1,1,1");
    expectIdentical("fs_rp", "mcf", 1, weighted);
    // Refresh epochs, where the FS wake hints are hardest: the REF
    // burst issues one command per cycle and the epoch rollover must
    // land on its exact cycle.
    Config refresh;
    refresh.set("dram.refresh", true);
    expectIdentical("fs_rp", "mcf", 1, refresh);
}

// Progress marks every 7 instructions land inside the gaps a core
// sleeps through, so the closed form must place each at its exact
// CPU cycle.
TEST(FastForwardDiff, ProgressMarksInsideSleptGaps)
{
    Config marks;
    marks.set("audit.progress_interval", 7);
    expectIdentical("fs_rp", "mcf", 1, marks);
    expectIdentical("fs_np", "libquantum", 42, marks);
    expectIdentical("tp_bp", "milc", 7, marks);
    expectIdentical("baseline", "mcf", 1, marks);
}

TEST(FastForwardDiff, FsBankPartition)
{
    expectIdentical("fs_bp", "mcf", 1);
    expectIdentical("fs_bp", "milc", 7);
}

TEST(FastForwardDiff, FsNoPartition)
{
    expectIdentical("fs_np", "mcf", 1);
    expectIdentical("fs_np", "xalancbmk", 42);
    // The idle-heavy point whose skip ratio KernelEngagement.FsNpHog
    // pins (test_kernel_engagement.cc).
    expectIdentical("fs_np", "hog", 1);
}

TEST(FastForwardDiff, FsTripleAlternation)
{
    expectIdentical("fs_np_triple", "mcf", 3);
}

// The energy-optimisation variants exercise ACT suppression and
// precharge power-down: rank residency charged lazily across
// fast-forwarded spans must equal the naive loop's, whose energy
// clock advances one tick() at a time.
TEST(FastForwardDiff, FsEnergyVariants)
{
    expectIdentical("fs_rp_suppress", "mcf", 1);
    expectIdentical("fs_rp_powerdown", "mcf", 1);
    expectIdentical("fs_rp_powerdown", "astar", 42);
}

TEST(FastForwardDiff, FsWithPrefetch)
{
    expectIdentical("fs_rp_prefetch", "libquantum", 1);
}

// -- FS-reordered (the queued/reordered variant, bank partition) ---

TEST(FastForwardDiff, FsReordered)
{
    expectIdentical("fs_reordered_bp", "mcf", 1);
    expectIdentical("fs_reordered_bp", "milc", 42);
}

// -- Temporal partitioning across both partitioning modes ----------

TEST(FastForwardDiff, TpBankPartition)
{
    expectIdentical("tp_bp", "mcf", 1);
    expectIdentical("tp_bp", "astar", 42);
}

TEST(FastForwardDiff, TpNoPartition)
{
    expectIdentical("tp_np", "mcf", 1);
    expectIdentical("tp_np", "xalancbmk", 7);
}

// -- FRFCFS baseline (no partition), with and without prefetch -----

TEST(FastForwardDiff, FrFcfsBaseline)
{
    expectIdentical("baseline", "mcf", 1);
    expectIdentical("baseline", "libquantum", 42);
    // Write-drain heavy: exercises the drain-mode flips the idle-skip
    // hint must never sleep through.
    expectIdentical("baseline", "lbm", 1);
}

TEST(FastForwardDiff, FrFcfsWithRefresh)
{
    // Refresh drains a rank (avoidRank) and wakes on its deadlines.
    Config refresh;
    refresh.set("dram.refresh", true);
    expectIdentical("baseline", "mcf", 1, refresh);
    expectIdentical("baseline", "lbm", 7, refresh);
}

TEST(FastForwardDiff, FrFcfsWithPrefetchPromotion)
{
    // The baseline sleeps only while no prefetch is promotable and
    // wakes at each utilisation-window turn; streaming and
    // write-heavy mixes keep the prefetch queues busy, and a lone
    // lbm core leaves the controller idle across whole windows.
    expectIdentical("baseline_prefetch", "mcf", 1);
    expectIdentical("baseline_prefetch", "libquantum", 42);
    expectIdentical("baseline_prefetch", "lbm", 7);
    expectIdentical("baseline_prefetch", "lbm,idle,idle,idle", 1);
    Config refresh;
    refresh.set("dram.refresh", true);
    expectIdentical("baseline_prefetch", "milc", 1, refresh);
    // The fast arm must really sleep, or the comparison proves nothing.
    const DiffOutcome o =
        runBothModes(diffConfig("baseline_prefetch", "mcf", 1));
    EXPECT_GT(o.fast.cyclesSkipped, 0u);
}

// -- Channel partitioning (multi-controller registration order) ----

TEST(FastForwardDiff, ChannelPartition)
{
    expectIdentical("channel_part", "mcf", 1);
}

// -- Fault injection: per-rule TimingChecker totals in the digest --
//
// With an injector attached the controller hint goes conservative
// (every cycle ticks), but the cores still skip; the shadow
// checker's per-rule violation counts and recorded SimErrors must
// come out identical.

TEST(FastForwardDiff, FaultInjectionRuleTotals)
{
    // Magnitude 20 skews ops past later-planned ones, so commands
    // issue overdue and out of plan order.
    for (Cycle magnitude : {Cycle{1}, Cycle{20}}) {
        Config c = diffConfig("fs_rp", "mcf", 1);
        c.set("fault.kind", "slot-skew");
        c.set("fault.magnitude", magnitude);
        const DiffOutcome o = runBothModes(c);
        EXPECT_EQ(resultDigest(o.naive), resultDigest(o.fast))
            << "magnitude " << magnitude;
        EXPECT_EQ(o.naive.violationRules, o.fast.violationRules);
        EXPECT_EQ(o.naive.timingViolations, o.fast.timingViolations);
    }
}

// -- Covert-channel sender: cycle-keyed trace modulation -----------
//
// The modulated sender keys its memory intensity on the simulated
// bus cycle via TraceGenerator::observeCycle(), which only executed
// ticks deliver. This is safe because ticks that dispatch records
// are never skippable — and this test is the proof: if fast-forward
// ever skipped past a modulation window edge, the sender's waveform
// (and with it the receiver's audited timeline) would shift.

TEST(FastForwardDiff, ModulatedSenderWaveformIdentical)
{
    for (const char *scheme : {"baseline", "fs_rp", "tp_bp"}) {
        Config c = diffConfig(scheme, "probe,modsender,modsender,"
                                      "modsender", 1);
        c.set("leak.window", 500);
        c.set("leak.secret_bits", 16);
        const DiffOutcome o = runBothModes(c);
        EXPECT_EQ(resultDigest(o.naive), resultDigest(o.fast))
            << scheme << " with modulated sender";
        EXPECT_EQ(o.naive.cyclesSkipped, 0u);
    }
}

// -- Sanity: the fast path actually fires where it should ----------
//
// A differential test that never skips proves nothing. The fixed
// service schedule on a memory-bound workload has long statically
// dead stretches between slot events; require a real skip ratio so
// a silently-disabled fast path fails loudly.

TEST(FastForwardDiff, FastPathActuallySkips)
{
    const DiffOutcome o = runBothModes(diffConfig("fs_np", "mcf", 1));
    EXPECT_GT(o.fast.cyclesSkipped, 0u);
    EXPECT_GT(o.fast.cyclesSkipped, o.fast.cyclesExecuted / 4)
        << "fast-forward skipped too little on an idle-heavy "
           "fixed-service schedule";
    EXPECT_EQ(o.naive.cyclesExecuted,
              o.fast.cyclesExecuted + o.fast.cyclesSkipped);
}
