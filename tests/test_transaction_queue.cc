#include <gtest/gtest.h>

#include <stdexcept>

#include "mem/transaction_queue.hh"
#include "util/serialize.hh"

using namespace memsec;
using namespace memsec::mem;

namespace {

std::unique_ptr<MemRequest>
mk(ReqId id, ReqType type, Addr addr)
{
    auto r = std::make_unique<MemRequest>();
    r->id = id;
    r->type = type;
    r->addr = addr;
    return r;
}

} // namespace

TEST(TransactionQueue, FifoOrder)
{
    TransactionQueue q(4, 4);
    q.push(mk(1, ReqType::Read, 0x100));
    q.push(mk(2, ReqType::Read, 0x200));
    EXPECT_EQ(q.head()->id, 1u);
    EXPECT_EQ(q.popOldest()->id, 1u);
    EXPECT_EQ(q.popOldest()->id, 2u);
    EXPECT_TRUE(q.empty());
}

TEST(TransactionQueue, CapacityEnforcedPerType)
{
    TransactionQueue q(2, 2);
    q.push(mk(1, ReqType::Read, 0));
    q.push(mk(2, ReqType::Read, 64));
    EXPECT_TRUE(q.full(ReqType::Read));
    // Writes budget independently of reads.
    EXPECT_FALSE(q.full(ReqType::Write));
    q.push(mk(3, ReqType::Write, 128));
    q.push(mk(4, ReqType::Write, 192));
    EXPECT_TRUE(q.full(ReqType::Write));
    EXPECT_THROW(q.push(mk(5, ReqType::Read, 256)), std::logic_error);
    EXPECT_THROW(q.push(mk(6, ReqType::Write, 320)), std::logic_error);
}

TEST(TransactionQueue, ReadWriteCounts)
{
    TransactionQueue q(8, 8);
    q.push(mk(1, ReqType::Read, 0));
    q.push(mk(2, ReqType::Write, 64));
    q.push(mk(3, ReqType::Prefetch, 128));
    EXPECT_EQ(q.readCount(), 2u);
    EXPECT_EQ(q.writeCount(), 1u);
    q.popOldest();
    EXPECT_EQ(q.readCount(), 1u);
}

TEST(TransactionQueue, FindOldestRespectsOrder)
{
    TransactionQueue q(8, 8);
    q.push(mk(1, ReqType::Write, 0));
    q.push(mk(2, ReqType::Read, 64));
    q.push(mk(3, ReqType::Read, 128));
    const MemRequest *r = q.findOldest(
        [](const MemRequest &m) { return m.type == ReqType::Read; });
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->id, 2u);
}

TEST(TransactionQueue, FindOldestNoMatch)
{
    TransactionQueue q(8, 8);
    q.push(mk(1, ReqType::Write, 0));
    EXPECT_EQ(q.findOldest([](const MemRequest &) { return false; }),
              nullptr);
}

TEST(TransactionQueue, FindOldestIsConstCorrect)
{
    // Regression: the single const findOldest handed out a mutable
    // MemRequest*, so a const queue could be modified through it.
    // The const overload must return a pointer-to-const, the
    // non-const overload a mutable pointer.
    using Pred = const std::function<bool(const MemRequest &)> &;
    static_assert(
        std::is_same_v<decltype(std::declval<const TransactionQueue &>()
                                    .findOldest(std::declval<Pred>())),
                       const MemRequest *>,
        "const queue must hand out const requests");
    static_assert(
        std::is_same_v<decltype(std::declval<TransactionQueue &>()
                                    .findOldest(std::declval<Pred>())),
                       MemRequest *>,
        "mutable queue keeps the mutable overload");

    TransactionQueue q(8, 8);
    q.push(mk(1, ReqType::Read, 0));
    const TransactionQueue &cq = q;
    const MemRequest *r =
        cq.findOldest([](const MemRequest &) { return true; });
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->id, 1u);
    MemRequest *m =
        q.findOldest([](const MemRequest &) { return true; });
    EXPECT_EQ(m, r);
}

TEST(TransactionQueue, TakeRemovesSpecificEntry)
{
    TransactionQueue q(8, 8);
    q.push(mk(1, ReqType::Read, 0));
    q.push(mk(2, ReqType::Read, 64));
    q.push(mk(3, ReqType::Read, 128));
    const MemRequest *mid = q.at(1);
    auto taken = q.take(mid);
    EXPECT_EQ(taken->id, 2u);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.at(0)->id, 1u);
    EXPECT_EQ(q.at(1)->id, 3u);
}

TEST(TransactionQueue, TakeMissingPanics)
{
    TransactionQueue q(8, 8);
    q.push(mk(1, ReqType::Read, 0));
    MemRequest stray;
    EXPECT_THROW(q.take(&stray), std::logic_error);
}

TEST(TransactionQueue, HasWriteToMatchesLine)
{
    TransactionQueue q(8, 8);
    q.push(mk(1, ReqType::Write, 0x1000));
    // Same 64B line, different byte offset.
    EXPECT_TRUE(q.hasWriteTo(0x1020));
    EXPECT_FALSE(q.hasWriteTo(0x1040));
    // Reads do not count as writes.
    q.push(mk(2, ReqType::Read, 0x2000));
    EXPECT_FALSE(q.hasWriteTo(0x2000));
    EXPECT_TRUE(q.hasEntryFor(0x2000));
}

TEST(TransactionQueue, ZeroCapacityPanics)
{
    EXPECT_THROW(TransactionQueue(0, 4), std::logic_error);
    EXPECT_THROW(TransactionQueue(4, 0), std::logic_error);
}

TEST(TransactionQueue, PopEmptyPanics)
{
    TransactionQueue q(2, 2);
    EXPECT_THROW(q.popOldest(), std::logic_error);
}

TEST(TransactionQueue, ClassViewsMirrorQueueOrder)
{
    TransactionQueue q(4, 4);
    auto w = mk(1, ReqType::Write, 0x100);
    w->loc.rank = 3;
    w->loc.bank = 5;
    w->loc.row = 77;
    w->arrival = 9;
    q.push(std::move(w));
    q.push(mk(2, ReqType::Read, 0x200));
    q.push(mk(3, ReqType::Prefetch, 0x300));
    q.push(mk(4, ReqType::Write, 0x400));

    auto ids = [&](bool writes) {
        std::vector<ReqId> out;
        for (const auto &e : q.view(writes))
            out.push_back(e.id);
        return out;
    };
    EXPECT_EQ(ids(false), (std::vector<ReqId>{2, 3}));
    EXPECT_EQ(ids(true), (std::vector<ReqId>{1, 4}));
    const TransactionQueue::Entry &e = q.view(true)[0];
    EXPECT_EQ(e.req, q.at(0));
    EXPECT_EQ(e.rank, 3u);
    EXPECT_EQ(e.bank, 5u);
    EXPECT_EQ(e.row, 77u);
    EXPECT_EQ(e.arrival, 9u);

    // Removal from the middle and the front keeps both views in step.
    q.take(q.at(2));
    EXPECT_EQ(ids(false), (std::vector<ReqId>{2}));
    q.popOldest();
    EXPECT_EQ(ids(true), (std::vector<ReqId>{4}));
    EXPECT_EQ(ids(false), (std::vector<ReqId>{2}));
}

TEST(TransactionQueue, MutationCounterTracksContentChanges)
{
    TransactionQueue q(4, 4);
    const uint64_t m0 = q.mutations();
    q.push(mk(1, ReqType::Read, 0x100));
    q.push(mk(2, ReqType::Write, 0x200));
    const uint64_t m1 = q.mutations();
    EXPECT_GT(m1, m0);
    // Queries leave it alone.
    (void)q.findOldest([](const MemRequest &) { return true; });
    (void)q.hasWriteTo(0x200);
    EXPECT_EQ(q.mutations(), m1);
    q.take(q.at(1));
    const uint64_t m2 = q.mutations();
    EXPECT_GT(m2, m1);
    q.popOldest();
    EXPECT_GT(q.mutations(), m2);
}

TEST(TransactionQueue, SharedTotalsFollowPushTakeAndRestore)
{
    QueueTotals totals;
    TransactionQueue a(4, 4, &totals);
    TransactionQueue b(4, 4, &totals);
    a.push(mk(1, ReqType::Read, 0x100));
    a.push(mk(2, ReqType::Write, 0x200));
    b.push(mk(3, ReqType::Prefetch, 0x300));
    EXPECT_EQ(totals.reads, 2u);
    EXPECT_EQ(totals.writes, 1u);
    EXPECT_EQ(totals.mutations, a.mutations() + b.mutations());
    a.take(a.at(1));
    EXPECT_EQ(totals.writes, 0u);

    // Restoring `b` from `a`'s state swaps b's content in the sums.
    Serializer s;
    a.saveState(s);
    const uint64_t before = totals.mutations;
    Deserializer d(s.data());
    b.restoreState(d, [](const MemRequest &) { return nullptr; });
    EXPECT_EQ(totals.reads, 2u);
    EXPECT_EQ(totals.writes, 0u);
    EXPECT_GT(totals.mutations, before);
    b.popOldest();
    a.popOldest();
    EXPECT_EQ(totals.reads, 0u);
}
