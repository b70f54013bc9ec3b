#include <gtest/gtest.h>

#include "mem/memory_controller.hh"
#include "sched/frfcfs.hh"

using namespace memsec;
using namespace memsec::mem;

namespace {

class McTest : public ::testing::Test, public MemClient
{
  protected:
    McTest()
        : map(dram::Geometry{}, Partition::None, Interleave::ClosePage,
              4)
    {
        MemoryController::Params p;
        p.numDomains = 4;
        p.queueCapacity = 8;
        mc = std::make_unique<MemoryController>("mc", p, map);
        mc->setScheduler(std::make_unique<sched::FrFcfsScheduler>(*mc));
    }

    void memResponse(const MemRequest &req) override
    {
        responses.push_back(req.id);
        lastCompleted = req.completed;
    }

    std::unique_ptr<MemRequest>
    mk(DomainId d, ReqType t, Addr a, ReqId id = 0)
    {
        auto r = std::make_unique<MemRequest>();
        r->id = id;
        r->domain = d;
        r->type = t;
        r->addr = a;
        r->client = this;
        return r;
    }

    AddressMap map;
    std::unique_ptr<MemoryController> mc;
    std::vector<ReqId> responses;
    Cycle lastCompleted = 0;
};

} // namespace

TEST_F(McTest, AccessDecodesAndQueues)
{
    mc->access(mk(1, ReqType::Read, 0x4000), 5);
    const TransactionQueue &q = mc->queue(1);
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q.head()->arrival, 5u);
    EXPECT_NE(q.head()->id, 0u); // id allocated
    EXPECT_EQ(mc->stats().demandReads.value(), 1u);
}

TEST_F(McTest, StoreToLoadForwarding)
{
    mc->access(mk(2, ReqType::Write, 0x8000), 0);
    mc->access(mk(2, ReqType::Read, 0x8000), 3);
    // The read was served instantly from the queued write.
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(lastCompleted, 3u);
    EXPECT_EQ(mc->stats().forwarded.value(), 1u);
    EXPECT_EQ(mc->queue(2).size(), 1u); // only the write remains
}

TEST_F(McTest, WriteMerging)
{
    mc->access(mk(0, ReqType::Write, 0xC000), 0);
    mc->access(mk(0, ReqType::Write, 0xC020), 1); // same line
    EXPECT_EQ(mc->queue(0).size(), 1u);
    EXPECT_EQ(mc->stats().mergedWrites.value(), 1u);
}

TEST_F(McTest, SameLineLookupsStayWithinTheDomain)
{
    // Without partitioning the line decodes to one bank for every
    // domain (on a row offset per domain), so both writes below share
    // a write bucket. test_transaction_queue.cc checks the domain
    // match where two domains share a row too.
    ASSERT_EQ(map.decode(1, 0x8000).bank, map.decode(2, 0x8000).bank);
    mc->access(mk(1, ReqType::Write, 0x8000), 0);
    // Another domain's queued write neither serves a read...
    mc->access(mk(2, ReqType::Read, 0x8000), 1);
    EXPECT_EQ(mc->stats().forwarded.value(), 0u);
    EXPECT_TRUE(responses.empty());
    EXPECT_EQ(mc->queue(2).readCount(), 1u);
    // ...nor absorbs a write.
    mc->access(mk(2, ReqType::Write, 0x8020), 2);
    EXPECT_EQ(mc->stats().mergedWrites.value(), 0u);
    EXPECT_EQ(mc->queue(2).writeCount(), 1u);
    // Within one domain both still fire.
    mc->access(mk(1, ReqType::Read, 0x8010), 3);
    EXPECT_EQ(mc->stats().forwarded.value(), 1u);
    EXPECT_EQ(responses.size(), 1u);
    mc->access(mk(1, ReqType::Write, 0x8030), 4);
    EXPECT_EQ(mc->stats().mergedWrites.value(), 1u);
    EXPECT_EQ(mc->queue(1).size(), 1u);

    // A demand read rides its own domain's queued prefetch only.
    auto pf = mk(3, ReqType::Prefetch, 0xA000);
    pf->loc = map.decode(3, 0xA000);
    mc->queue(3).push(std::move(pf));
    mc->access(mk(0, ReqType::Read, 0xA000), 5);
    EXPECT_EQ(mc->stats().mergedWithPrefetch.value(), 0u);
    EXPECT_EQ(mc->queue(0).readCount(), 1u);
    mc->access(mk(3, ReqType::Read, 0xA000), 6);
    EXPECT_EQ(mc->stats().mergedWithPrefetch.value(), 1u);
    EXPECT_EQ(mc->queue(3).size(), 1u);
}

TEST_F(McTest, PrefetchGoesToSideQueue)
{
    mc->access(mk(3, ReqType::Prefetch, 0x1000), 0);
    EXPECT_EQ(mc->queue(3).size(), 0u);
    EXPECT_EQ(mc->prefetchQueue(3).size(), 1u);
    EXPECT_EQ(mc->stats().prefetches.value(), 1u);
}

TEST_F(McTest, PrefetchQueueBounded)
{
    for (int i = 0; i < 20; ++i)
        mc->access(mk(3, ReqType::Prefetch, 0x1000 + i * 64ull), 0);
    EXPECT_LE(mc->prefetchQueue(3).size(), 8u);
}

TEST_F(McTest, DuplicatePrefetchDropped)
{
    mc->access(mk(3, ReqType::Read, 0x1000), 0);
    mc->access(mk(3, ReqType::Prefetch, 0x1000), 1);
    EXPECT_EQ(mc->prefetchQueue(3).size(), 0u);
}

TEST_F(McTest, CanAcceptTracksCapacity)
{
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(mc->canAccept(0));
        mc->access(mk(0, ReqType::Read, 0x10000 + i * 64ull), 0);
    }
    EXPECT_FALSE(mc->canAccept(0));
    EXPECT_TRUE(mc->canAccept(1));
}

TEST_F(McTest, EndToEndReadCompletes)
{
    mc->access(mk(1, ReqType::Read, 0x4000), 0);
    for (Cycle t = 0; t < 100 && responses.empty(); ++t)
        mc->tick(t);
    ASSERT_EQ(responses.size(), 1u);
    // ACT + tRCD + tCAS + tBURST ~ 26 cycles minimum.
    EXPECT_GE(lastCompleted, 26u);
    EXPECT_LT(lastCompleted, 60u);
    EXPECT_GT(mc->stats().readLatency.mean(), 0.0);
}

TEST_F(McTest, CompletionOrderStableForSameCycle)
{
    mc->access(mk(0, ReqType::Read, 0x4000), 0);
    mc->access(mk(1, ReqType::Read, 0x14000), 0);
    for (Cycle t = 0; t < 200 && responses.size() < 2; ++t)
        mc->tick(t);
    ASSERT_EQ(responses.size(), 2u);
}

TEST_F(McTest, EffectiveBandwidthCountsRealBursts)
{
    mc->access(mk(1, ReqType::Read, 0x4000), 0);
    for (Cycle t = 0; t < 100; ++t)
        mc->tick(t);
    EXPECT_NEAR(mc->effectiveBandwidth(100), 4.0 / 100.0, 1e-9);
}

TEST_F(McTest, RegisterStatsExposesCounters)
{
    StatGroup g;
    mc->registerStats(g);
    mc->access(mk(1, ReqType::Read, 0x4000), 0);
    EXPECT_DOUBLE_EQ(g.lookup("demand_reads"), 1.0);
}
