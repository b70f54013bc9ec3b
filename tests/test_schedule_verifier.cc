/**
 * @file
 * The static schedule verifier must independently reproduce every
 * pipeline constant the paper derives — each gap minimal (verify(l)
 * clean, verify(l-1) a concrete conflicting command pair with cycle
 * offsets) — and agree with the PipelineSolver on every (part,
 * reference, partitioning) combination, since both consume the same
 * shared rule table through entirely different checking logic.
 */

#include <gtest/gtest.h>

#include "analysis/schedule_verifier.hh"
#include "core/pipeline_solver.hh"
#include "core/slot_schedule.hh"
#include "harness/experiment.hh"
#include "sched/fs.hh"

using namespace memsec;
using analysis::ScheduleVerifier;
using analysis::VerifierConfig;
using analysis::VerifyResult;
using core::PartitionLevel;
using core::PeriodicRef;
using core::PipelineSolver;

namespace {

VerifierConfig
cfgOf(PeriodicRef ref, PartitionLevel level)
{
    VerifierConfig cfg;
    cfg.ref = ref;
    cfg.level = level;
    cfg.numDomains = 8;
    cfg.numRanks = 8;
    return cfg;
}

ScheduleVerifier
paperVerifier(PeriodicRef ref, PartitionLevel level)
{
    return ScheduleVerifier(dram::TimingParams::ddr3_1600_4gb(),
                            cfgOf(ref, level));
}

} // namespace

// ---- The paper's five Table gaps, each proven minimal: the verifier
// accepts l and rejects l-1 with a concrete conflicting pair. ----

struct PaperGap
{
    PeriodicRef ref;
    PartitionLevel level;
    unsigned l;
};

class PaperGaps : public ::testing::TestWithParam<PaperGap>
{
};

TEST_P(PaperGaps, MinimalFeasibleMatchesPaper)
{
    const auto &p = GetParam();
    const ScheduleVerifier v = paperVerifier(p.ref, p.level);
    EXPECT_EQ(v.minimalFeasible(), p.l);
}

TEST_P(PaperGaps, AcceptsLRejectsLMinusOneWithConcretePair)
{
    const auto &p = GetParam();
    const ScheduleVerifier v = paperVerifier(p.ref, p.level);

    const VerifyResult good = v.verify(p.l);
    EXPECT_TRUE(good.ok) << good.summary();
    EXPECT_FALSE(good.hasConflict);
    EXPECT_GT(good.slotsChecked, 0u);
    EXPECT_GT(good.pairsChecked, 0u);

    const VerifyResult bad = v.verify(p.l - 1);
    EXPECT_FALSE(bad.ok);
    ASSERT_TRUE(bad.hasConflict) << bad.summary();
    // The report names a rule and two concrete command cycles.
    const auto &c = bad.conflict;
    EXPECT_LT(c.earlierSlot, c.laterSlot);
    EXPECT_LT(c.gap, c.need);
    EXPECT_NE(std::string(dram::ruleName(c.rule)), "");
    const std::string text = c.toString();
    EXPECT_NE(text.find("violated between slot"), std::string::npos);
    EXPECT_NE(text.find("cycle"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllFiveGaps, PaperGaps,
    ::testing::Values(
        PaperGap{PeriodicRef::Data, PartitionLevel::Rank, 7},
        PaperGap{PeriodicRef::Ras, PartitionLevel::Rank, 12},
        PaperGap{PeriodicRef::Ras, PartitionLevel::Bank, 15},
        PaperGap{PeriodicRef::Data, PartitionLevel::Bank, 21},
        PaperGap{PeriodicRef::Ras, PartitionLevel::None, 43}));

// ---- Cross-validation: solver inequalities vs hyperperiod unroll
// must agree everywhere, for every DRAM part in the repo. ----

struct CrossParam
{
    const char *partName;
    dram::TimingParams (*make)();
};

class CrossValidate : public ::testing::TestWithParam<CrossParam>
{
};

TEST_P(CrossValidate, VerifierAgreesWithSolverEverywhere)
{
    const dram::TimingParams tp = GetParam().make();
    const PipelineSolver solver(tp);
    for (PartitionLevel level :
         {PartitionLevel::Rank, PartitionLevel::Bank,
          PartitionLevel::None}) {
        for (PeriodicRef ref :
             {PeriodicRef::Data, PeriodicRef::Ras, PeriodicRef::Cas}) {
            const auto sol = solver.solve(ref, level);
            const ScheduleVerifier v(tp, cfgOf(ref, level));
            const unsigned lv = v.minimalFeasible();
            ASSERT_TRUE(sol.feasible)
                << GetParam().partName << " "
                << core::periodicRefName(ref);
            EXPECT_EQ(lv, sol.l)
                << GetParam().partName << " "
                << core::periodicRefName(ref) << " "
                << core::partitionLevelName(level);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllParts, CrossValidate,
    ::testing::Values(
        CrossParam{"ddr3_1600", &dram::TimingParams::ddr3_1600_4gb},
        CrossParam{"ddr3_2133", &dram::TimingParams::ddr3_2133},
        CrossParam{"ddr4_2400", &dram::TimingParams::ddr4_2400}));

// ---- Rank-partitioned l=6 collides on the command bus; the report
// carries the exact colliding cycles. ----

TEST(ScheduleVerifier, RankDataSixReportsCommandBusCollision)
{
    const ScheduleVerifier v =
        paperVerifier(PeriodicRef::Data, PartitionLevel::Rank);
    const VerifyResult r = v.verify(6);
    ASSERT_TRUE(r.hasConflict);
    EXPECT_EQ(r.conflict.rule, dram::RuleId::CmdBus);
    EXPECT_EQ(r.conflict.earlierCycle, r.conflict.laterCycle);
    EXPECT_EQ(r.conflict.gap, 0);
    EXPECT_EQ(r.conflict.need, 1);
}

// ---- Hyperperiod structure. ----

TEST(ScheduleVerifier, HyperperiodIsLcmOfFrameAndTurnaround)
{
    const ScheduleVerifier v =
        paperVerifier(PeriodicRef::Data, PartitionLevel::Rank);
    // 8 domains at l=7: frame 56, turnaround period 14, lcm 56.
    EXPECT_EQ(v.hyperperiod(7), 56u);
    // Odd domain count: frame 7*7=49, lcm(49, 14) = 98.
    VerifierConfig cfg = cfgOf(PeriodicRef::Data, PartitionLevel::Rank);
    cfg.numDomains = 7;
    const ScheduleVerifier v7(dram::TimingParams::ddr3_1600_4gb(), cfg);
    EXPECT_EQ(v7.hyperperiod(7), 98u);
}

TEST(ScheduleVerifier, HyperperiodIncludesRefreshInterval)
{
    VerifierConfig cfg = cfgOf(PeriodicRef::Data, PartitionLevel::Rank);
    cfg.refresh = true;
    const ScheduleVerifier v(dram::TimingParams::ddr3_1600_4gb(), cfg);
    // lcm(56, 14, 6240) = 43680.
    EXPECT_EQ(v.hyperperiod(7), 43680u);
}

// ---- Refresh epochs: the deterministic blackout keeps every command
// clear of the REF burst over a whole hyperperiod. ----

TEST(ScheduleVerifier, RefreshEpochsVerifiedOverHyperperiod)
{
    for (PaperGap p :
         {PaperGap{PeriodicRef::Data, PartitionLevel::Rank, 7},
          PaperGap{PeriodicRef::Ras, PartitionLevel::Bank, 15},
          PaperGap{PeriodicRef::Ras, PartitionLevel::None, 43}}) {
        VerifierConfig cfg = cfgOf(p.ref, p.level);
        cfg.refresh = true;
        const ScheduleVerifier v(dram::TimingParams::ddr3_1600_4gb(),
                                 cfg);
        const VerifyResult r = v.verify(p.l);
        EXPECT_TRUE(r.ok) << r.summary();
        EXPECT_GE(r.refreshEpochsChecked, 1u);
    }
}

// ---- Conflict reports are human-readable (regression): each side
// names its owning domain, the rule-anchored command edge, and the
// frame-relative offset, so a collision can be located in the
// repeating template without re-running the verifier. ----

TEST(ConflictReportText, NamesDomainsEdgesAndFrameOffsets)
{
    const ScheduleVerifier v =
        paperVerifier(PeriodicRef::Data, PartitionLevel::Rank);
    const VerifyResult bad = v.verify(6); // one below the l=7 minimum
    ASSERT_TRUE(bad.hasConflict) << bad.summary();
    const auto &c = bad.conflict;

    // Structured fields are populated, not defaulted.
    EXPECT_NE(c.earlierDomain, analysis::ConflictReport::kNoDomain);
    EXPECT_NE(c.laterDomain, analysis::ConflictReport::kNoDomain);
    EXPECT_LE(c.earlierFrameOffset, c.earlierCycle);
    EXPECT_LE(c.laterFrameOffset, c.laterCycle);
    EXPECT_FALSE(c.againstRefreshEpoch);

    const std::string text = c.toString();
    EXPECT_NE(text.find("domain"), std::string::npos) << text;
    EXPECT_NE(text.find("frame offset"), std::string::npos) << text;
    // Both rule-anchored edges are spelled by name (ACT/CAS/DATA).
    EXPECT_NE(text.find(dram::cmdEdgeName(c.fromEdge)),
              std::string::npos)
        << text;
    EXPECT_NE(text.find(dram::cmdEdgeName(c.toEdge)),
              std::string::npos)
        << text;
    // The long-standing substrings older tooling greps for survive.
    EXPECT_NE(text.find("violated between slot"), std::string::npos);
    EXPECT_NE(text.find("gap"), std::string::npos);
}

TEST(ConflictReportText, RefreshConflictNamesTheEpoch)
{
    dram::TimingParams tp = dram::TimingParams::ddr3_1600_4gb();
    tp.refi = 300; // cannot fit pause + margin + one frame
    VerifierConfig cfg = cfgOf(PeriodicRef::Data, PartitionLevel::Rank);
    cfg.refresh = true;
    const ScheduleVerifier v(tp, cfg);
    const VerifyResult r = v.verify(7);
    ASSERT_TRUE(r.hasConflict) << r.summary();
    ASSERT_TRUE(r.conflict.againstRefreshEpoch);
    EXPECT_EQ(r.conflict.laterDomain,
              analysis::ConflictReport::kNoDomain);
    const std::string text = r.conflict.toString();
    EXPECT_NE(text.find("refresh epoch at cycle"), std::string::npos)
        << text;
    // The slot side still carries domain + frame-offset context.
    EXPECT_NE(text.find("domain"), std::string::npos) << text;
    EXPECT_NE(text.find("frame offset"), std::string::npos) << text;
}

TEST(ScheduleVerifier, TooShortRefiIsRejectedAsRetentionConflict)
{
    dram::TimingParams tp = dram::TimingParams::ddr3_1600_4gb();
    // An epoch needs margin + pause + one frame; 300 cycles cannot
    // fit pause = ranks + tRFC = 216 plus margin and a 56-cycle frame.
    tp.refi = 300;
    VerifierConfig cfg = cfgOf(PeriodicRef::Data, PartitionLevel::Rank);
    cfg.refresh = true;
    const ScheduleVerifier v(tp, cfg);
    const VerifyResult r = v.verify(7);
    ASSERT_TRUE(r.hasConflict);
    EXPECT_EQ(r.conflict.rule, dram::RuleId::Refresh);
}

// ---- Triple alternation (Section 4.3): same-group slots are 3l >= 43
// apart, so l = 15 carries unpartitioned banks; a group factor of 2
// (2l = 30 < 43) provably does not. ----

TEST(ScheduleVerifier, TripleAlternationVerifiesStatically)
{
    VerifierConfig cfg = cfgOf(PeriodicRef::Ras, PartitionLevel::Bank);
    cfg.bankGroups = 3;
    const ScheduleVerifier v(dram::TimingParams::ddr3_1600_4gb(), cfg);
    const VerifyResult r = v.verify(15);
    EXPECT_TRUE(r.ok) << r.summary();
}

TEST(ScheduleVerifier, DoubleAlternationFailsSameBankReuse)
{
    VerifierConfig cfg = cfgOf(PeriodicRef::Ras, PartitionLevel::Bank);
    cfg.bankGroups = 2;
    const ScheduleVerifier v(dram::TimingParams::ddr3_1600_4gb(), cfg);
    const VerifyResult r = v.verify(15);
    ASSERT_TRUE(r.hasConflict) << r.summary();
    EXPECT_TRUE(r.conflict.rule == dram::RuleId::ActToActRdA ||
                r.conflict.rule == dram::RuleId::ActToActWrA ||
                r.conflict.rule == dram::RuleId::Rc)
        << r.summary();
}

TEST(ScheduleVerifier, PhantomPadSlotKeepsGroupRotationSound)
{
    // 9 domains x 3 groups: 9 % 3 == 0 forces a phantom pad slot,
    // exactly as FsScheduler inserts one.
    VerifierConfig cfg = cfgOf(PeriodicRef::Ras, PartitionLevel::Bank);
    cfg.numDomains = 9;
    cfg.bankGroups = 3;
    const ScheduleVerifier v(dram::TimingParams::ddr3_1600_4gb(), cfg);
    const VerifyResult r = v.verify(15);
    EXPECT_TRUE(r.ok) << r.summary();
    // Frame is 10 slots, one of them a phantom.
    EXPECT_EQ(r.hyperperiod % (10 * 15), 0u);
}

// ---- The frames FS actually runs: each live FsScheduler's template,
// weighted, zero-weight and padded frames included, is model-checked
// at its own l. ----

TEST(ScheduleVerifier, LiveFsTemplatesAreConflictFree)
{
    struct Point
    {
        const char *scheme;
        const char *key; ///< one extra config key (nullptr: none)
        const char *value;
        unsigned cores;
    };
    const Point points[] = {
        {"fs_rp", nullptr, nullptr, 8},
        {"fs_bp", nullptr, nullptr, 8},
        {"fs_np", nullptr, nullptr, 8},
        {"fs_np_triple", nullptr, nullptr, 6}, // 6 % 3 == 0: phantom pad
        {"fs_rp", "fs.slot_weights", "2,1,1,1", 4},
        {"fs_rp", "dram.refresh", "true", 8},
        {"fs_rp", "dram.channels", "2", 8}, // zero-weight frames
    };
    for (const Point &p : points) {
        Config c = harness::defaultConfig();
        c.merge(harness::schemeConfig(p.scheme));
        c.set("cores", p.cores);
        c.set("workload", "idle");
        c.set("core.functional_warmup", 0);
        if (p.key)
            c.set(p.key, p.value);
        const std::string point =
            std::string(p.scheme) + (p.key ? std::string(" ") + p.key +
                                                 "=" + p.value
                                           : std::string());
        harness::ExperimentSystem sys(c);
        const unsigned channels =
            static_cast<unsigned>(c.getUint("dram.channels"));
        for (unsigned ch = 0; ch < channels; ++ch) {
            mem::MemoryController &mc = sys.controller(ch);
            const auto *fs =
                dynamic_cast<const sched::FsScheduler *>(&mc.scheduler());
            ASSERT_NE(fs, nullptr) << point;
            const core::SlotTemplate &t = fs->slotTemplate();
            const VerifyResult r =
                ScheduleVerifier(mc.dram().timing(), VerifierConfig{})
                    .verify(t);
            EXPECT_TRUE(r.ok) << point << " channel " << ch << ": "
                              << r.summary();
            EXPECT_EQ(r.l, fs->slotSpacing()) << point;
            EXPECT_EQ(r.refreshEpochsChecked > 0, t.refresh()) << point;
            if (channels > 1) {
                EXPECT_EQ(t.slotsPerFrame(), p.cores / channels) << point;
            }
        }
        const auto &t = dynamic_cast<const sched::FsScheduler &>(
                            sys.controller(0).scheduler())
                            .slotTemplate();
        if (std::string(p.scheme) == "fs_np_triple") {
            EXPECT_EQ(t.domainOf(t.slotsPerFrame() - 1),
                      core::SlotTemplate::kPhantom);
        }
        if (p.key && std::string(p.key) == "fs.slot_weights") {
            EXPECT_EQ(t.slotsPerFrame(), 5u);
        }
    }
}
