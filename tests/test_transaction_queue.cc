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

TEST(TransactionQueue, BankIndexFindsASameLineWriteOfTheDomain)
{
    QueueTotals totals(1, 2);
    const BankIndex &index = totals.banks;
    TransactionQueue q(8, 8, &totals);
    q.push(mk(1, ReqType::Write, 0x1000));
    // Same 64B line, different byte offset.
    EXPECT_TRUE(index.hasWriteTo(*mk(9, ReqType::Read, 0x1020)));
    EXPECT_FALSE(index.hasWriteTo(*mk(9, ReqType::Read, 0x1040)));
    // Another domain's write to the line does not count.
    auto other = mk(9, ReqType::Write, 0x1000);
    other->domain = 1;
    EXPECT_FALSE(index.hasWriteTo(*other));
    // Reads do not count as writes.
    q.push(mk(2, ReqType::Read, 0x2000));
    EXPECT_FALSE(index.hasWriteTo(*mk(9, ReqType::Read, 0x2000)));
    EXPECT_TRUE(q.hasEntryFor(0x2000));
    // Only the request's own bank is searched.
    auto elsewhere = mk(9, ReqType::Read, 0x1000);
    elsewhere->loc.bank = 1;
    EXPECT_FALSE(index.hasWriteTo(*elsewhere));
}

TEST(TransactionQueue, PrefetchCountFollowsPushTakeAndRestore)
{
    TransactionQueue q(8, 8);
    q.push(mk(1, ReqType::Prefetch, 0x100));
    q.push(mk(2, ReqType::Read, 0x200));
    q.push(mk(3, ReqType::Prefetch, 0x300));
    EXPECT_EQ(q.prefetchCount(), 2u);
    q.take(q.at(0));
    EXPECT_EQ(q.prefetchCount(), 1u);
    Serializer s;
    q.saveState(s);
    TransactionQueue r(8, 8);
    r.push(mk(4, ReqType::Prefetch, 0x400));
    r.push(mk(5, ReqType::Prefetch, 0x500));
    Deserializer d(s.data());
    r.restoreState(d, [](const MemRequest &) { return nullptr; });
    EXPECT_EQ(r.prefetchCount(), 1u);
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

TEST(TransactionQueue, BankIndexFilesByRankBankAndClass)
{
    QueueTotals totals(4, 8); // flat bank = rank * 8 + bank
    const BankIndex &index = totals.banks;
    TransactionQueue q(4, 4, &totals);
    auto at = [](ReqId id, ReqType type, unsigned rank, unsigned bank) {
        auto r = mk(id, type, id * 0x100);
        r->loc.rank = rank;
        r->loc.bank = bank;
        r->loc.row = 70 + id;
        r->arrival = 9 + id;
        return r;
    };
    q.push(at(1, ReqType::Write, 3, 5));
    q.push(at(2, ReqType::Read, 3, 5));
    q.push(at(3, ReqType::Prefetch, 3, 5));
    q.push(at(4, ReqType::Write, 0, 1));
    q.push(at(5, ReqType::Read, 3, 5));

    auto ids = [&](bool writes, unsigned flat) {
        std::vector<ReqId> out;
        for (const auto &e : index.bucket(writes, flat).entries)
            out.push_back(e.id);
        return out;
    };
    auto mask = [&](bool writes) {
        return std::vector<uint64_t>(index.nonempty(writes).begin(),
                                     index.nonempty(writes).end());
    };
    EXPECT_EQ(index.numBanks(), 32u);
    EXPECT_EQ(ids(false, 29), (std::vector<ReqId>{2, 3, 5}));
    EXPECT_EQ(ids(true, 29), (std::vector<ReqId>{1}));
    EXPECT_EQ(ids(true, 1), (std::vector<ReqId>{4}));
    EXPECT_TRUE(ids(false, 1).empty());
    EXPECT_EQ(mask(false), (std::vector<uint64_t>{1ull << 29}));
    EXPECT_EQ(mask(true), (std::vector<uint64_t>{(1ull << 29) | 2}));
    const BankIndex::Entry &e = index.bucket(true, 29).entries[0];
    EXPECT_EQ(e.req, q.at(0));
    EXPECT_EQ(e.rank, 3u);
    EXPECT_EQ(e.bank, 5u);
    EXPECT_EQ(e.row, 71u);
    EXPECT_EQ(e.arrival, 10u);

    // Every change marks the bucket's bank in its class's changed
    // mask, and only there, until the mask is cleared.
    auto changed = [&](bool writes) {
        return std::vector<uint64_t>(index.changed(writes).begin(),
                                     index.changed(writes).end());
    };
    EXPECT_EQ(changed(false), (std::vector<uint64_t>{1ull << 29}));
    EXPECT_EQ(changed(true), (std::vector<uint64_t>{(1ull << 29) | 2}));
    totals.banks.clearChanged(false);
    totals.banks.clearChanged(true);

    // Removal from the middle keeps the rest in filing order.
    q.take(q.at(2));
    EXPECT_EQ(ids(false, 29), (std::vector<ReqId>{2, 5}));
    EXPECT_EQ(changed(false), (std::vector<uint64_t>{1ull << 29}));
    EXPECT_EQ(changed(true), (std::vector<uint64_t>{0}));
    // Removal from the front empties the write bucket and its bit.
    q.popOldest();
    EXPECT_TRUE(ids(true, 29).empty());
    EXPECT_EQ(changed(true), (std::vector<uint64_t>{1ull << 29}));
    totals.banks.clearChanged(false);
    EXPECT_EQ(changed(false), (std::vector<uint64_t>{0}));
    EXPECT_EQ(changed(true), (std::vector<uint64_t>{1ull << 29}));
    EXPECT_EQ(mask(true), (std::vector<uint64_t>{2}));
    EXPECT_EQ(mask(false), (std::vector<uint64_t>{1ull << 29}));
    q.take(q.at(0));
    q.take(q.at(1));
    EXPECT_EQ(mask(false), (std::vector<uint64_t>{0}));
    EXPECT_EQ(ids(true, 1), (std::vector<ReqId>{4}));

    // A request outside the index is refused before anything changes.
    EXPECT_THROW(q.push(at(6, ReqType::Read, 4, 0)), std::logic_error);
    EXPECT_THROW(q.push(at(7, ReqType::Read, 0, 8)), std::logic_error);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(totals.reads, 0u);
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
    (void)q.hasEntryFor(0x200);
    EXPECT_EQ(q.mutations(), m1);
    q.take(q.at(1));
    const uint64_t m2 = q.mutations();
    EXPECT_GT(m2, m1);
    q.popOldest();
    EXPECT_GT(q.mutations(), m2);
}

TEST(TransactionQueue, SharedTotalsFollowPushTakeAndRestore)
{
    QueueTotals totals(1, 2);
    const BankIndex &index = totals.banks;
    TransactionQueue a(4, 4, &totals);
    TransactionQueue b(4, 4, &totals);
    auto inBank = [](std::unique_ptr<MemRequest> r, unsigned bank) {
        r->loc.bank = bank;
        return r;
    };
    a.push(mk(1, ReqType::Read, 0x100));
    a.push(mk(2, ReqType::Write, 0x200));
    b.push(inBank(mk(3, ReqType::Prefetch, 0x300), 1));
    EXPECT_EQ(totals.reads, 2u);
    EXPECT_EQ(totals.writes, 1u);
    EXPECT_EQ(totals.mutations, a.mutations() + b.mutations());
    a.take(a.at(1));
    EXPECT_EQ(totals.writes, 0u);
    EXPECT_EQ(index.bucket(false, 0).entries.size(), 1u);
    EXPECT_EQ(index.bucket(false, 1).entries.size(), 1u);

    // Restoring `b` from `a`'s state swaps b's content in the sums
    // and refiles its buckets: b's prefetch leaves bank 1, and a copy
    // of a's read joins bank 0.
    Serializer s;
    a.saveState(s);
    const uint64_t before = totals.mutations;
    totals.banks.clearChanged(false);
    Deserializer d(s.data());
    b.restoreState(d, [](const MemRequest &) { return nullptr; });
    EXPECT_EQ(totals.reads, 2u);
    EXPECT_EQ(totals.writes, 0u);
    EXPECT_GT(totals.mutations, before);
    EXPECT_TRUE(index.bucket(false, 1).entries.empty());
    EXPECT_EQ(index.changed(false)[0], 3u); // banks 0 and 1 refiled
    ASSERT_EQ(index.bucket(false, 0).entries.size(), 2u);
    EXPECT_EQ(index.bucket(false, 0).entries[0].req, a.at(0));
    EXPECT_EQ(index.bucket(false, 0).entries[1].req, b.at(0));
    EXPECT_EQ(index.bucket(false, 0).entries[1].id, 1u);
    EXPECT_EQ(index.nonempty(false)[0], 1u);
    b.popOldest();
    a.popOldest();
    EXPECT_EQ(totals.reads, 0u);
    EXPECT_EQ(index.nonempty(false)[0], 0u);
}

TEST(TransactionQueue, RestoreRefusesARequestOutsideTheBankIndex)
{
    QueueTotals wide(1, 4);
    TransactionQueue src(4, 4, &wide);
    auto r = mk(1, ReqType::Read, 0x100);
    r->loc.bank = 3;
    src.push(std::move(r));
    Serializer s;
    src.saveState(s);

    QueueTotals narrow(1, 2);
    TransactionQueue dst(4, 4, &narrow);
    Deserializer d(s.data());
    EXPECT_THROW(
        dst.restoreState(d, [](const MemRequest &) { return nullptr; }),
        SerializeError);
}
