#include <gtest/gtest.h>

#include <memory>

#include "mem/memory_controller.hh"
#include "sched/tp.hh"

using namespace memsec;
using namespace memsec::mem;
using namespace memsec::sched;

namespace {

class TpTest : public ::testing::Test, public MemClient
{
  protected:
    void
    build(unsigned turn, Partition part = Partition::Bank)
    {
        map = std::make_unique<AddressMap>(dram::Geometry{}, part,
                                           Interleave::ClosePage, 4);
        MemoryController::Params p;
        p.numDomains = 4;
        p.queueCapacity = 16;
        mc = std::make_unique<MemoryController>("mc", p, *map);
        auto s = std::make_unique<TpScheduler>(
            *mc, TpScheduler::Params{turn});
        tp = s.get();
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
    TpScheduler *tp = nullptr;
    std::vector<std::pair<DomainId, Cycle>> done;
    Cycle now = 0;
};

} // namespace

TEST_F(TpTest, TurnAssignmentRoundRobin)
{
    build(60);
    EXPECT_EQ(tp->activeDomain(0), 0u);
    EXPECT_EQ(tp->activeDomain(59), 0u);
    EXPECT_EQ(tp->activeDomain(60), 1u);
    EXPECT_EQ(tp->activeDomain(239), 3u);
    EXPECT_EQ(tp->activeDomain(240), 0u);
    EXPECT_EQ(tp->turnEnd(0), 60u);
    EXPECT_EQ(tp->turnEnd(60), 120u);
}

TEST_F(TpTest, InTurnPipelineMatchesPaper)
{
    // Bank-partitioned TP issues at the l = 15 fixed-service spacing
    // (Section 4.2: "theoretical peak bandwidth of 27%").
    build(60);
    EXPECT_EQ(tp->slotSpacing(), 15u);
    // Unpartitioned TP uses the 43-cycle pipeline (9% peak).
    build(172, Partition::None);
    EXPECT_EQ(tp->slotSpacing(), 43u);
}

TEST_F(TpTest, FootprintsDeriveDeadTime)
{
    build(60);
    // Bank-partitioned: read = tRCD+tCAS+tBURST+tRTRS = 28, write =
    // tRCD+wr2rd = 26 -> the last usable write slot leaves a ~11-26
    // cycle dead tail (the paper's ~12 ns).
    EXPECT_EQ(tp->readFootprint(), 28u);
    EXPECT_EQ(tp->writeFootprint(), 26u);

    build(172, Partition::None);
    // Shared banks: reads must re-precharge (tRC bound, 39); writes
    // need tRCD+tCWD+tBURST+tWR+tRP = 43 (the paper's ~65 ns dead
    // time covers exactly this).
    EXPECT_EQ(tp->readFootprint(), 39u);
    EXPECT_EQ(tp->writeFootprint(), 43u);
}

TEST_F(TpTest, OnlyActiveDomainServed)
{
    build(60);
    inject(0, 0x1000, 0);
    inject(1, 0x1000, 0);
    // During domain 0's turn only domain 0 completes.
    runTo(60);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].first, 0u);
    // Domain 1 completes in its own turn.
    runTo(130);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[1].first, 1u);
    EXPECT_GE(done[1].second, 60u);
}

TEST_F(TpTest, WaitingForDistantTurnCostsFullRotation)
{
    build(60);
    // Inject for domain 3 just after its turn ended.
    runTo(240); // domain 3's first turn is [180, 240)
    inject(3, 0x1000, now);
    runTo(500);
    ASSERT_EQ(done.size(), 1u);
    // Served in the next domain-3 turn: [420, 480).
    EXPECT_GE(done[0].second, 420u);
    EXPECT_LT(done[0].second, 480u);
}

TEST_F(TpTest, LateArrivalsMissTheLastSlot)
{
    build(60);
    // readFootprint = 28: the slot at offset 45 cannot start a read
    // (45 + 28 > 60), so a request arriving at offset 40 waits for
    // the next rotation.
    inject(0, 0x1000, 0);
    runTo(40);
    EXPECT_EQ(done.size(), 1u);
    inject(0, 0x2000, 40);
    runTo(480);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_GE(done[1].second, 240u);
}

TEST_F(TpTest, ThreeSlotsPerBankPartitionedTurn)
{
    // Turn 60, l = 15: slots at 0/15/30 fit a read (28 <= 60-30);
    // the slot at 45 does not. Saturating one domain with
    // bank-striped reads must serve exactly 3 per turn.
    build(60);
    for (int i = 0; i < 12; ++i)
        inject(0, 0x4000 + i * 64ull, 0);
    runTo(60);
    size_t inFirstTurn = 0;
    for (const auto &e : done)
        inFirstTurn += e.second <= 60;
    EXPECT_EQ(inFirstTurn, 3u);
}

TEST_F(TpTest, SameBankReuseSerialisedInTurn)
{
    // Requests to different rows of one bank cannot use consecutive
    // 15-cycle slots (43-cycle reuse): at most 2 complete per turn.
    build(60);
    for (int i = 0; i < 6; ++i)
        inject(0, 0x100000ull * i, 0); // same bank, different rows
    runTo(60);
    EXPECT_LE(done.size(), 2u);
    runTo(2000);
    EXPECT_EQ(done.size(), 6u);
}

TEST_F(TpTest, TurnCounterAdvances)
{
    build(60);
    runTo(600);
    StatGroup g;
    tp->registerStats(g);
    EXPECT_DOUBLE_EQ(g.lookup("turns"), 10.0);
    EXPECT_GT(g.lookup("idle_slots"), 0.0);
}

TEST_F(TpTest, InvalidParamsFatal)
{
    map = std::make_unique<AddressMap>(dram::Geometry{},
                                       Partition::Bank,
                                       Interleave::ClosePage, 4);
    MemoryController::Params p;
    p.numDomains = 4;
    mc = std::make_unique<MemoryController>("mc", p, *map);
    EXPECT_EXIT(TpScheduler(*mc, TpScheduler::Params{0}),
                ::testing::ExitedWithCode(1), "turn length");
    EXPECT_EXIT(TpScheduler(*mc, TpScheduler::Params{20}),
                ::testing::ExitedWithCode(1), "footprint");
}

TEST_F(TpTest, MixedTrafficDrainsConflictFree)
{
    build(60);
    for (int i = 0; i < 8; ++i) {
        for (DomainId d = 0; d < 4; ++d)
            inject(d, 0x1000 + i * 64ull, 0,
                   i % 2 ? ReqType::Write : ReqType::Read);
    }
    // The DRAM model panics on any timing violation.
    runTo(3000);
    EXPECT_EQ(mc->queue(0).size(), 0u);
    EXPECT_EQ(mc->queue(3).size(), 0u);
}

TEST_F(TpTest, UnpartitionedTurnsConflictFree)
{
    build(172, Partition::None);
    for (int i = 0; i < 8; ++i) {
        for (DomainId d = 0; d < 4; ++d)
            inject(d, 0x2000 + i * 64ull, 0,
                   i % 3 == 0 ? ReqType::Write : ReqType::Read);
    }
    runTo(6000);
    EXPECT_EQ(mc->queue(0).size(), 0u);
    EXPECT_EQ(mc->queue(2).size(), 0u);
}
