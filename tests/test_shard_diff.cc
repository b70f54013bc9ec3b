/**
 * @file
 * Differential proof that channel sharding is invisible: every
 * scheduler x partitioning combination that can run multi-channel is
 * run twice from identical seeds — once serially (sim.shards = 1),
 * once with the channels stepped in parallel on the thread pool —
 * and the full-precision result digests must compare equal byte for
 * byte. Shards share no mutable state by construction; this test is
 * the proof that the construction holds (a shared PRNG, a shared
 * error list, or any cross-shard ordering dependence shows up as a
 * digest mismatch).
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/campaign.hh"
#include "harness/experiment.hh"

using namespace memsec;
using namespace memsec::harness;

namespace {

Config
shardConfig(const std::string &scheme, const std::string &workload,
            unsigned channels, uint64_t seed)
{
    Config c = defaultConfig();
    c.merge(schemeConfig(scheme));
    c.set("dram.channels", channels);
    c.set("cores", 8);
    c.set("workload", workload);
    c.set("seed", seed);
    c.set("sim.warmup", 1500);
    c.set("sim.measure", 12000);
    // Audit one core so the digest covers the noninterference
    // timeline, not just the aggregate metrics.
    c.set("audit.core", 0);
    c.set("audit.progress_interval", 1000);
    return c;
}

void
expectShardedIdentical(Config cfg, unsigned shards)
{
    cfg.set("sim.shards", 1);
    const ExperimentResult serial = runExperiment(cfg);
    cfg.set("sim.shards", shards);
    const ExperimentResult sharded = runExperiment(cfg);
    EXPECT_EQ(resultDigest(serial), resultDigest(sharded))
        << cfg.getString("scheme", "?") << "/"
        << cfg.getString("workload", "?") << " shards=" << shards;
    EXPECT_EQ(serial.shards, 1u);
    EXPECT_EQ(sharded.shards, shards);
}

} // namespace

// -- FS rank partition over 2 and 4 channels -----------------------

TEST(ShardDiff, FsRankPartition)
{
    expectShardedIdentical(shardConfig("fs_rp", "mcf", 2, 1), 2);
    expectShardedIdentical(shardConfig("fs_rp", "milc", 4, 42), 4);
}

TEST(ShardDiff, FsBankPartition)
{
    expectShardedIdentical(shardConfig("fs_bp", "mcf", 2, 1), 2);
}

TEST(ShardDiff, FsReordered)
{
    expectShardedIdentical(shardConfig("fs_reordered_bp", "mcf", 2, 1),
                           2);
}

// -- Temporal partitioning (newly allowed multi-channel) -----------

TEST(ShardDiff, TpBankPartition)
{
    expectShardedIdentical(shardConfig("tp_bp", "mcf", 2, 1), 2);
    expectShardedIdentical(shardConfig("tp_bp", "astar", 4, 7), 4);
}

// -- FR-FCFS baseline and channel partitioning ---------------------

TEST(ShardDiff, FrFcfsBaseline)
{
    expectShardedIdentical(shardConfig("baseline", "mix1", 4, 1), 4);
}

TEST(ShardDiff, ChannelPartition)
{
    // 8 domains, one private channel each; 8 shards of one channel.
    expectShardedIdentical(shardConfig("channel_part", "mcf", 8, 1),
                           8);
}

// -- Shard count not dividing the channel count --------------------

TEST(ShardDiff, UnevenShardCount)
{
    expectShardedIdentical(shardConfig("fs_rp", "mcf", 4, 1), 3);
}

// -- Requesting more shards than channels clamps, still identical --

TEST(ShardDiff, ShardCountClamped)
{
    Config cfg = shardConfig("fs_rp", "mcf", 2, 1);
    cfg.set("sim.shards", 1);
    const ExperimentResult serial = runExperiment(cfg);
    cfg.set("sim.shards", 16);
    const ExperimentResult sharded = runExperiment(cfg);
    EXPECT_EQ(resultDigest(serial), resultDigest(sharded));
    EXPECT_EQ(sharded.shards, 2u) << "clamped to the channel count";
}

// -- Fault injection: per-controller injector streams --------------
//
// Slot-skew injection draws from a PRNG on the fault path. With one
// injector per controller the draw order inside each controller is
// fixed regardless of how shards interleave, so the digest —
// including every recorded SimError and per-rule violation total —
// must still match the serial run.

TEST(ShardDiff, SlotSkewFaultInjection)
{
    Config cfg = shardConfig("fs_rp", "mcf", 2, 1);
    cfg.set("fault.kind", "slot-skew");
    cfg.set("sim.shards", 1);
    const ExperimentResult serial = runExperiment(cfg);
    cfg.set("sim.shards", 2);
    const ExperimentResult sharded = runExperiment(cfg);
    EXPECT_EQ(resultDigest(serial), resultDigest(sharded));
    EXPECT_EQ(serial.violationRules, sharded.violationRules);
    EXPECT_EQ(serial.faultsInjected, sharded.faultsInjected);
    EXPECT_GT(serial.faultsInjected, 0u)
        << "injection never fired, differential is vacuous";
}

// -- Sharding composes with the other kernel fast paths ------------

TEST(ShardDiff, ComposesWithFastForward)
{
    Config cfg = shardConfig("fs_rp", "mcf", 2, 1);
    cfg.set("sim.fastforward", false);
    cfg.set("sim.shards", 1);
    const ExperimentResult naive = runExperiment(cfg);
    cfg.set("sim.fastforward", true);
    cfg.set("sim.shards", 2);
    const ExperimentResult sharded = runExperiment(cfg);
    EXPECT_EQ(resultDigest(naive), resultDigest(sharded));
}

// -- Open-loop arrivals under sharding -----------------------------

TEST(ShardDiff, OpenLoopTraffic)
{
    Config cfg = shardConfig("fs_rp", "cloud", 2, 1);
    cfg.set("traffic.process", "mmpp");
    cfg.set("traffic.rate", 6.0);
    cfg.set("traffic.clients", 16);
    expectShardedIdentical(cfg, 2);
}
