#include <gtest/gtest.h>

#include <memory>

#include "mem/memory_controller.hh"
#include "sched/frfcfs.hh"

using namespace memsec;
using namespace memsec::mem;
using namespace memsec::sched;

namespace {

class FrFcfsTest : public ::testing::Test, public MemClient
{
  protected:
    FrFcfsTest()
        : map(dram::Geometry{}, Partition::None, Interleave::OpenPage, 2)
    {
        MemoryController::Params p;
        p.numDomains = 2;
        p.queueCapacity = 16;
        mc = std::make_unique<MemoryController>("mc", p, map);
        auto sched = std::make_unique<FrFcfsScheduler>(*mc);
        schedPtr = sched.get();
        mc->setScheduler(std::move(sched));
    }

    void memResponse(const MemRequest &req) override
    {
        done.push_back({req.id, req.completed});
    }

    void
    inject(DomainId d, ReqType t, Addr a, Cycle now, ReqId id)
    {
        auto r = std::make_unique<MemRequest>();
        r->id = id;
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

    AddressMap map;
    std::unique_ptr<MemoryController> mc;
    FrFcfsScheduler *schedPtr = nullptr;
    std::vector<std::pair<ReqId, Cycle>> done;
    Cycle now = 0;
};

} // namespace

TEST_F(FrFcfsTest, SingleReadMinimalLatency)
{
    inject(0, ReqType::Read, 0x1000, 0, 1);
    runTo(100);
    ASSERT_EQ(done.size(), 1u);
    const auto &tp = mc->dram().timing();
    // ACT at 0, CAS at tRCD, data ends tCAS + tBURST later.
    EXPECT_EQ(done[0].second, tp.rcd + tp.cas + tp.burst);
}

TEST_F(FrFcfsTest, RowHitServedBeforeOlderMiss)
{
    // Two same-row reads and one conflicting-row read, same bank.
    inject(0, ReqType::Read, 0, 0, 1);
    runTo(12); // ACT for req 1 issued, row open
    // Same row (consecutive line) vs different row of the same bank.
    inject(0, ReqType::Read, 64, 12, 2);
    runTo(60);
    EXPECT_EQ(schedPtr->engine().rowHits(), 1u);
}

TEST_F(FrFcfsTest, OpenPageKeepsRowForHits)
{
    inject(0, ReqType::Read, 0, 0, 1);
    inject(0, ReqType::Read, 64, 0, 2);
    inject(0, ReqType::Read, 128, 0, 3);
    runTo(120);
    ASSERT_EQ(done.size(), 3u);
    // One activate serves all three CASes.
    EXPECT_EQ(mc->dram().energy(0).activates, 1u);
}

TEST_F(FrFcfsTest, WritesDrainWhenNoReads)
{
    inject(0, ReqType::Write, 0x2000, 0, 1);
    runTo(100);
    EXPECT_EQ(mc->queue(0).size(), 0u);
    EXPECT_EQ(mc->stats().realBursts.value(), 1u);
}

TEST_F(FrFcfsTest, ReadsPrioritisedOverFewWrites)
{
    for (int i = 0; i < 4; ++i)
        inject(0, ReqType::Write, 0x40000 + i * 8192ull, 0, 10 + i);
    inject(1, ReqType::Read, 0x1000, 0, 1);
    runTo(60);
    // The read completed although the writes arrived first.
    ASSERT_FALSE(done.empty());
    EXPECT_EQ(done[0].first, 1u);
}

TEST_F(FrFcfsTest, ConflictingRowGetsPrecharged)
{
    inject(0, ReqType::Read, 0, 0, 1);
    runTo(30);
    // Different row, same bank: with open-page interleave a bank's
    // row spans colsPerRow lines and banks stripe above that, so the
    // same bank recurs every colsPerRow * nslots lines.
    const Addr sameBankNextRow = 128ull * 64 * 64;
    inject(0, ReqType::Read, sameBankNextRow, 30, 2);
    runTo(150);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_GE(schedPtr->engine().rowConflicts(), 1u);
}

TEST_F(FrFcfsTest, AllRequestsEventuallyComplete)
{
    for (int i = 0; i < 16; ++i) {
        inject(i % 2, i % 3 == 0 ? ReqType::Write : ReqType::Read,
               0x1000 + i * 4096ull, 0, 100 + i);
    }
    runTo(2000);
    // Every request (reads and writes) responds to its client.
    EXPECT_EQ(done.size(), 16u);
    EXPECT_EQ(mc->queue(0).size(), 0u);
    EXPECT_EQ(mc->queue(1).size(), 0u);
}

TEST_F(FrFcfsTest, StatsGroupHasRowCounters)
{
    StatGroup g;
    schedPtr->registerStats(g);
    EXPECT_GE(g.lookup("row_hits"), 0.0);
    EXPECT_GE(g.lookup("row_conflicts"), 0.0);
}

/**
 * Model quirk, pinned on purpose: with no reads queued and at most
 * the low watermark (8) of writes, updateDrainMode() arms drain mode
 * (reads == 0 && writes > 0) and disarms it (writes <= low watermark)
 * on alternate ticks, so writes are considered only every other
 * cycle. Fixing it changes every FR-FCFS digest; until that separate
 * behaviour change lands, this test keeps the toggle (and the wake
 * hint's refusal to sleep through it) from changing silently.
 */
TEST_F(FrFcfsTest, DrainModeTogglesWithFewWritesAndNoReads)
{
    // Three writes to three different banks: none can finish within
    // the observed ticks (ACT, then tRCD before the first CAS).
    for (int i = 0; i < 3; ++i)
        inject(0, ReqType::Write, 0x40000 + i * 8192ull, 0, 10 + i);
    std::string drain;
    for (; now < 8; ++now) {
        mc->tick(now);
        drain += schedPtr->engine().drainingWrites() ? '1' : '0';
        // A flip is due on the next tick: the baseline must not sleep.
        EXPECT_EQ(schedPtr->nextWakeCycle(now), now + 1) << now;
    }
    EXPECT_EQ(drain, "10101010");
    EXPECT_EQ(mc->queue(0).writeCount(), 3u);
}

TEST_F(FrFcfsTest, IdleTickSleepsUntilTheFirstLegalCandidate)
{
    const auto &tp = mc->dram().timing();
    inject(0, ReqType::Read, 0x1000, 0, 1);
    mc->tick(0); // ACT issues: the hint is stale at once
    EXPECT_EQ(schedPtr->nextWakeCycle(0), 1u);
    mc->tick(1); // idle: the CAS waits for tRCD
    EXPECT_EQ(schedPtr->nextWakeCycle(1), tp.rcd);
    // Any queue change voids the hint.
    inject(1, ReqType::Read, 0x9000, 1, 2);
    EXPECT_EQ(schedPtr->nextWakeCycle(1), 2u);
}

TEST(FrFcfsPromotion, IdleWakeTracksPromotablePrefetchesAndTheWindow)
{
    AddressMap map(dram::Geometry{}, Partition::None, Interleave::OpenPage,
                   2);
    MemoryController::Params p;
    p.numDomains = 2;
    p.queueCapacity = 16;
    MemoryController mc("mc", p, map);
    auto owned = std::make_unique<FrFcfsScheduler>(mc, true);
    const FrFcfsScheduler &sched = *owned;
    mc.setScheduler(std::move(owned));
    auto send = [&](DomainId d, ReqType t, Addr a, Cycle now) {
        auto r = std::make_unique<MemRequest>();
        r->domain = d;
        r->type = t;
        r->addr = a;
        mc.access(std::move(r), now);
    };

    const auto &tp = mc.dram().timing();
    send(0, ReqType::Read, 0x1000, 0);
    mc.tick(0); // ACT
    mc.tick(1); // idle: the CAS waits for tRCD
    EXPECT_EQ(sched.nextWakeCycle(1), tp.rcd);
    // A prefetch push leaves the demand queues, and so the hint's
    // epoch, alone; the next idle tick must still run to promote it.
    send(1, ReqType::Prefetch, 0x9000, 1);
    EXPECT_EQ(sched.nextWakeCycle(1), 2u);
    mc.tick(2);
    EXPECT_EQ(mc.queue(1).readCount(), 1u);
    EXPECT_EQ(sched.nextWakeCycle(2), 3u);
    // Served and idle: nothing is due before the utilisation window
    // turns, 1024 cycles after it last did.
    for (Cycle c = 3; c < 400; ++c)
        mc.tick(c);
    EXPECT_EQ(mc.queue(0).size() + mc.queue(1).size(), 0u);
    EXPECT_EQ(sched.nextWakeCycle(399), 1024u);
    mc.tick(1024);
    EXPECT_EQ(sched.nextWakeCycle(1024), 2048u);
}
