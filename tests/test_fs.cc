#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/pipeline_solver.hh"
#include "dram/timing_rules.hh"
#include "mem/memory_controller.hh"
#include "sched/closed_row_plan.hh"
#include "sched/fs.hh"

using namespace memsec;
using namespace memsec::mem;
using namespace memsec::sched;

namespace {

class FsTest : public ::testing::Test, public MemClient
{
  protected:
    void
    build(Partition part, unsigned domains,
          FsScheduler::Params extra = FsScheduler::Params{})
    {
        map = std::make_unique<AddressMap>(
            dram::Geometry{}, part, Interleave::ClosePage, domains);
        MemoryController::Params p;
        p.numDomains = domains;
        p.queueCapacity = 16;
        mc = std::make_unique<MemoryController>("mc", p, *map);
        auto s = std::make_unique<FsScheduler>(*mc, extra);
        fs = s.get();
        mc->setScheduler(std::move(s));
    }

    void memResponse(const MemRequest &req) override
    {
        done.push_back({req.domain, req.completed});
    }

    void
    inject(DomainId d, Addr a, Cycle now, ReqType t = ReqType::Read)
    {
        auto r = std::make_unique<MemRequest>();
        r->domain = d;
        r->type = t;
        r->addr = a;
        r->client = this;
        mc->access(std::move(r), now);
    }

    void
    runTo(Cycle end)
    {
        for (; now < end; ++now)
            mc->tick(now);
    }

    std::unique_ptr<AddressMap> map;
    std::unique_ptr<MemoryController> mc;
    FsScheduler *fs = nullptr;
    std::vector<std::pair<DomainId, Cycle>> done;
    Cycle now = 0;
};

FsScheduler::Params
triple()
{
    FsScheduler::Params p;
    p.triple = true;
    return p;
}

} // namespace

TEST_F(FsTest, RankModeUsesSolvedSpacing)
{
    build(Partition::Rank, 8);
    EXPECT_EQ(fs->slotSpacing(), 7u);
    EXPECT_EQ(fs->frameLength(), 56u);
    EXPECT_EQ(fs->name(), "fs-rank");
}

TEST_F(FsTest, BankAndNoPartSpacings)
{
    build(Partition::Bank, 8);
    EXPECT_EQ(fs->slotSpacing(), 15u);
    build(Partition::None, 8);
    EXPECT_EQ(fs->slotSpacing(), 43u);
    build(Partition::None, 8, triple());
    EXPECT_EQ(fs->slotSpacing(), 15u);
}

TEST(FsScheduler, PipelineFollowsTheMap)
{
    // FS solves its pipeline for the partition of the map it runs on:
    // the spacing is the solver's best at that level, and the name is
    // pinned (certificate summaries print it).
    using core::PartitionLevel;
    struct Point
    {
        Partition part;
        bool triple;
        unsigned domains;
        PartitionLevel level;
        const char *name;
    };
    const Point points[] = {
        {Partition::None, false, 8, PartitionLevel::None, "fs-nopart"},
        {Partition::Bank, false, 8, PartitionLevel::Bank, "fs-bank"},
        {Partition::Rank, false, 8, PartitionLevel::Rank, "fs-rank"},
        // One channel holds one domain under channel partitioning.
        {Partition::Channel, false, 1, PartitionLevel::Rank, "fs-rank"},
        {Partition::None, true, 8, PartitionLevel::Bank, "fs-triple"},
    };
    for (const Point &p : points) {
        const AddressMap map(dram::Geometry{}, p.part,
                             Interleave::ClosePage, p.domains);
        MemoryController::Params mp;
        mp.numDomains = p.domains;
        MemoryController mc("mc", mp, map);
        FsScheduler::Params fp;
        fp.triple = p.triple;
        const FsScheduler fs(mc, fp);
        const core::PipelineSolver solver(mc.dram().timing());
        EXPECT_EQ(fs.slotSpacing(), solver.solveBest(p.level).l) << p.name;
        EXPECT_EQ(fs.name(), p.name);
    }
}

TEST_F(FsTest, EverySlotProducesAnOperation)
{
    build(Partition::Rank, 8);
    runTo(56 * 10); // ten frames
    // All 80 slots decided (all dummies: queues are empty); the last
    // slot's CAS (cycle 79*7+11) is still in flight at cycle 560.
    EXPECT_EQ(fs->dummyOps(), 80u);
    EXPECT_EQ(fs->realOps(), 0u);
    EXPECT_EQ(mc->stats().dummyBursts.value(), 79u);
}

TEST_F(FsTest, ServiceGuaranteeWithinTwoFrames)
{
    build(Partition::Rank, 8);
    inject(3, 0x4000, 0);
    runTo(150);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_LE(done[0].second, 2u * fs->frameLength() + 26);
}

TEST_F(FsTest, ConstantInjectionRateUnderLoad)
{
    build(Partition::Rank, 8);
    // Saturate domain 0; every domain-0 slot becomes a real op and
    // completions are exactly Q apart once steady.
    for (int i = 0; i < 10; ++i)
        inject(0, 0x10000 + i * 64ull * 8, 0);
    runTo(56 * 12);
    ASSERT_GE(done.size(), 10u);
    for (size_t i = 2; i < done.size(); ++i) {
        const Cycle gap = done[i].second - done[i - 1].second;
        // Footnote 1: 50, 56, or 62 cycles between a thread's ops.
        EXPECT_GE(gap, 50u);
        EXPECT_LE(gap, 62u);
    }
}

TEST_F(FsTest, ReadWriteMixedPipelineConflictFree)
{
    build(Partition::Rank, 8);
    for (int i = 0; i < 12; ++i) {
        for (DomainId d = 0; d < 8; ++d) {
            inject(d, 0x8000 + i * 64ull * 8, 0,
                   (i + d) % 3 == 0 ? ReqType::Write : ReqType::Read);
        }
    }
    // Any timing conflict panics inside the DRAM model.
    runTo(3000);
    EXPECT_GT(fs->realOps(), 90u);
}

TEST_F(FsTest, DummiesTargetOwnPartition)
{
    build(Partition::Rank, 4);
    runTo(500);
    // With rank partitioning and empty queues all dummy activity per
    // rank must come from its owner; cross-checking energy counters:
    // every rank saw activity (its owner's dummies).
    for (unsigned r = 0; r < 8; ++r) {
        const auto e = mc->dram().energy(r);
        EXPECT_GT(e.activates, 0u) << "rank " << r;
    }
}

TEST_F(FsTest, LowThreadCountHazardHandled)
{
    // 2 threads, rank partitioning: Q = 14 < 43, so back-to-back
    // same-bank transactions are a hazard the scheduler must dodge
    // (Section 7). Saturating one domain with same-bank requests
    // forces deferrals; the run must stay conflict-free.
    build(Partition::Rank, 2);
    for (int i = 0; i < 14; ++i)
        inject(0, 0x100000ull * i, 0); // many rows, one bank
    runTo(4000);
    EXPECT_GT(fs->realOps(), 0u);
    StatGroup g;
    fs->registerStats(g);
    EXPECT_GT(g.lookup("hazard_deferrals"), 0.0);
}

TEST_F(FsTest, TripleAlternationRotatesBankGroups)
{
    build(Partition::None, 8, triple());
    runTo(360 * 4);
    // The phantom pad slot only exists when domains % 3 == 0.
    EXPECT_EQ(fs->frameLength(), 8u * 15u);
    EXPECT_GT(fs->dummyOps(), 0u);
}

TEST_F(FsTest, TripleAlternationPadsWhenDivisibleByThree)
{
    build(Partition::None, 6, triple());
    // 6 domains would pin each domain to one bank group; a phantom
    // slot breaks the alignment: frame = 7 slots.
    EXPECT_EQ(fs->frameLength(), 7u * 15u);
    runTo(2000);
    StatGroup g;
    fs->registerStats(g);
    EXPECT_GT(g.lookup("skipped_slots"), 0.0);
}

TEST_F(FsTest, PrefetchFillsDummySlots)
{
    FsScheduler::Params p;
    p.prefetchInDummies = true;
    build(Partition::Rank, 8, p);
    // Queue a prefetch candidate for domain 2.
    auto r = std::make_unique<MemRequest>();
    r->domain = 2;
    r->type = ReqType::Prefetch;
    r->addr = 0x3000;
    r->client = this;
    mc->access(std::move(r), 0);
    runTo(200);
    EXPECT_EQ(fs->prefetchOps(), 1u);
    ASSERT_FALSE(done.empty());
    EXPECT_EQ(done[0].first, 2u);
}

TEST_F(FsTest, SuppressedDummiesKeepTimingSkipEnergy)
{
    FsScheduler::Params p;
    p.suppressDummies = true;
    build(Partition::Rank, 8, p);
    runTo(56 * 5);
    uint64_t real = 0;
    uint64_t suppressed = 0;
    for (unsigned r = 0; r < 8; ++r) {
        real += mc->dram().energy(r).activates;
        suppressed += mc->dram().energy(r).suppressedActs;
    }
    EXPECT_EQ(real, 0u);
    EXPECT_GT(suppressed, 0u);
}

TEST_F(FsTest, RowBufferBoostSuppressesRepeatActivates)
{
    FsScheduler::Params p;
    p.suppressDummies = true;
    p.rowBufferBoost = true;
    build(Partition::Rank, 8, p);
    // Same row requested repeatedly by domain 0.
    for (int i = 0; i < 6; ++i)
        inject(0, 0x40, 0); // merged? no: reads aren't merged
    runTo(800);
    StatGroup g;
    fs->registerStats(g);
    EXPECT_GT(g.lookup("boosted_acts"), 0.0);
}

TEST_F(FsTest, PowerDownCreditsIdleRanks)
{
    FsScheduler::Params p;
    p.powerDown = true;
    build(Partition::Rank, 8, p);
    runTo(56 * 10);
    fs->finalize(now);
    uint64_t pd = 0;
    for (unsigned r = 0; r < 8; ++r)
        pd += mc->dram().energy(r).cyclesPowerDown;
    EXPECT_GT(pd, 0u);
    StatGroup g;
    fs->registerStats(g);
    EXPECT_GT(g.lookup("skipped_slots"), 0.0);
}

TEST_F(FsTest, PowerDownRequiresRankPartitioning)
{
    FsScheduler::Params p;
    p.powerDown = true;
    map = std::make_unique<AddressMap>(dram::Geometry{},
                                       Partition::Bank,
                                       Interleave::ClosePage, 8);
    MemoryController::Params mp;
    mp.numDomains = 8;
    mc = std::make_unique<MemoryController>("mc", mp, *map);
    EXPECT_EXIT(FsScheduler(*mc, p), ::testing::ExitedWithCode(1),
                "power-down");
}

TEST_F(FsTest, SlaWeightsGiveProportionalSlots)
{
    FsScheduler::Params p;
    p.slotWeights = {2, 1, 1, 1, 1, 1, 1, 1};
    build(Partition::Rank, 8, p);
    // Frame has 9 slots now.
    EXPECT_EQ(fs->frameLength(), 9u * 7u);
    // Load domains 0 and 1 equally; while both stay backlogged,
    // domain 0 completes ~2x as many transactions.
    for (int i = 0; i < 12; ++i) {
        inject(0, 0x100000 + i * 64ull, 0); // stripe across banks
        inject(1, 0x100000 + i * 64ull, 0);
    }
    runTo(9 * 7 * 5);
    size_t d0 = 0;
    size_t d1 = 0;
    for (const auto &e : done) {
        d0 += e.first == 0;
        d1 += e.first == 1;
    }
    EXPECT_GT(d1, 2u);
    EXPECT_GT(d0, d1 + d1 / 2);
}

TEST_F(FsTest, DummyFractionFormula)
{
    build(Partition::Rank, 8);
    inject(0, 0x1000, 0);
    runTo(56 * 4);
    StatGroup g;
    fs->registerStats(g);
    const double frac = g.lookup("dummy_fraction");
    EXPECT_GT(frac, 0.9);
    EXPECT_LT(frac, 1.0);
}

// ---- The planned shadow interprets every bank- and rank-scope row of
// the timing-rule table, for each DRAM part. ----

namespace {

struct ShadowPart
{
    const char *name;
    dram::TimingParams (*make)();
};

const ShadowPart kShadowParts[] = {
    {"ddr3_1600", &dram::TimingParams::ddr3_1600_4gb},
    {"ddr3_2133", &dram::TimingParams::ddr3_2133},
    {"ddr4_2400", &dram::TimingParams::ddr4_2400},
};

/** A controller on one part, for driving a ClosedRowPlan directly. */
struct ShadowRig
{
    explicit ShadowRig(const dram::TimingParams &tp)
        : map(dram::Geometry{}, Partition::None, Interleave::ClosePage, 1),
          mc("mc", params(tp), map),
          off(core::PipelineSolver(tp).offsets(core::PeriodicRef::Data))
    {
    }

    static MemoryController::Params
    params(const dram::TimingParams &tp)
    {
        MemoryController::Params p;
        p.timing = tp;
        p.numDomains = 1;
        return p;
    }

    /** Cycles from an op's ACT to `e`, from the template offsets. */
    Cycle
    edge(bool write, dram::CmdEdge e) const
    {
        const int act = write ? off.actWrite : off.actRead;
        switch (e) {
          case dram::CmdEdge::Act: return 0;
          case dram::CmdEdge::Cas:
            return static_cast<Cycle>((write ? off.casWrite : off.casRead) -
                                      act);
          case dram::CmdEdge::Data:
            return static_cast<Cycle>(
                (write ? off.dataWrite : off.dataRead) - act);
        }
        return 0;
    }

    AddressMap map;
    MemoryController mc;
    core::SlotOffsets off;
};

} // namespace

TEST(ClosedRowPlanShadow, EveryAdjacentRowRefusesOneCycleEarly)
{
    constexpr Cycle kPrior = 1000;
    for (const ShadowPart &part : kShadowParts) {
        const dram::TimingParams tp = part.make();
        const dram::TimingRuleTable table(tp);
        for (dram::RuleScope scope :
             {dram::RuleScope::SameBank, dram::RuleScope::SameRank}) {
            // A same-rank later op goes to another bank, so only the
            // rank's horizons can refuse it.
            const unsigned laterBank =
                scope == dram::RuleScope::SameBank ? 0 : 1;
            for (bool ew : {false, true}) {
                for (bool lw : {false, true}) {
                    ShadowRig rig(tp);
                    ClosedRowPlan plan(rig.mc, rig.off);
                    plan.reserve(0, 0, kPrior, ew);
                    // The ACT cycle each row demands of the later op;
                    // the latest of them is where the scope admits it.
                    Cycle admitAt = 0;
                    unsigned rows = 0;
                    for (const dram::PairRule &r : table.pairRules()) {
                        if (r.scope != scope || r.actWindow != 1 ||
                            !dram::typeMatches(r.earlier, ew) ||
                            !dram::typeMatches(r.later, lw))
                            continue;
                        ++rows;
                        const Cycle need = kPrior + rig.edge(ew, r.from) +
                                           static_cast<Cycle>(r.minGap) -
                                           rig.edge(lw, r.to);
                        EXPECT_FALSE(plan.admits(scope, 0, laterBank,
                                                 need - 1, lw))
                            << part.name << " " << dram::ruleName(r.id)
                            << " ew=" << ew << " lw=" << lw;
                        admitAt = std::max(admitAt, need);
                    }
                    ASSERT_GT(rows, 0u) << part.name;
                    EXPECT_TRUE(plan.admits(scope, 0, laterBank, admitAt, lw))
                        << part.name << " ew=" << ew << " lw=" << lw;
                    // Another rank shares neither scope.
                    EXPECT_TRUE(plan.admits(scope, 1, 0, kPrior, lw));
                }
            }
        }
    }
}

TEST(ClosedRowPlanShadow, ActWindowBindsOnlyWithAFullWindow)
{
    constexpr Cycle kPrior = 1000;
    for (const ShadowPart &part : kShadowParts) {
        const dram::TimingParams tp = part.make();
        const dram::TimingRuleTable table(tp);
        const dram::PairRule *window = nullptr;
        for (const dram::PairRule &r : table.pairRules()) {
            if (r.actWindow > 1)
                window = &r;
        }
        ASSERT_NE(window, nullptr) << part.name;
        ASSERT_EQ(window->scope, dram::RuleScope::SameRank);

        // Prior ACTs one cycle apart on distinct banks: the adjacent
        // rows then bind well before the window does.
        ShadowRig rig(tp);
        ClosedRowPlan plan(rig.mc, rig.off);
        const unsigned n = window->actWindow;
        for (unsigned i = 0; i + 1 < n; ++i)
            plan.reserve(0, i, kPrior + i, false);
        const Cycle faw = kPrior + static_cast<Cycle>(window->minGap);
        EXPECT_TRUE(plan.admits(dram::RuleScope::SameRank, 0, n, faw - 1,
                                false))
            << part.name << ": window bound with " << n - 1 << " ACTs";

        plan.reserve(0, n - 1, kPrior + n - 1, false);
        EXPECT_FALSE(plan.admits(dram::RuleScope::SameRank, 0, n, faw - 1,
                                 false))
            << part.name;
        EXPECT_TRUE(
            plan.admits(dram::RuleScope::SameRank, 0, n, faw, false))
            << part.name;
    }
}
