#include "mem/transaction_queue.hh"

#include <algorithm>

#include "sim/simulator.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::mem {

namespace {

bool
isWrite(const MemRequest &r)
{
    return r.type == ReqType::Write;
}

void
setBit(std::vector<uint64_t> &mask, size_t bit)
{
    mask[bit / 64] |= uint64_t{1} << (bit % 64);
}

} // namespace

BankIndex::BankIndex(unsigned ranks, unsigned banksPerRank)
    : ranks_(ranks), banksPerRank_(banksPerRank)
{
    panic_if(ranks == 0 || banksPerRank == 0,
             "bank index needs at least one bank");
    const size_t banks = static_cast<size_t>(ranks) * banksPerRank;
    for (bool w : {false, true}) {
        buckets_[w].resize(banks);
        nonempty_[w].resize((banks + 63) / 64);
        changed_[w].resize((banks + 63) / 64);
    }
}

void
BankIndex::file(MemRequest &r)
{
    panic_if(!holds(r), "request to rank {} bank {} outside the bank index",
             r.loc.rank, r.loc.bank);
    const size_t idx = flatBank(r);
    Bucket &b = buckets_[isWrite(r)][idx];
    b.entries.push_back(
        {&r, r.arrival, r.id, r.loc.row, r.loc.rank, r.loc.bank});
    setBit(nonempty_[isWrite(r)], idx);
    setBit(changed_[isWrite(r)], idx);
}

void
BankIndex::unfile(const MemRequest &r)
{
    const size_t idx = flatBank(r);
    Bucket &b = buckets_[isWrite(r)][idx];
    b.entries.erase(
        std::find_if(b.entries.begin(), b.entries.end(),
                     [&r](const Entry &e) { return e.req == &r; }));
    setBit(changed_[isWrite(r)], idx);
    if (b.entries.empty())
        nonempty_[isWrite(r)][idx / 64] &= ~(uint64_t{1} << (idx % 64));
}

void
BankIndex::clearChanged(bool writes)
{
    std::fill(changed_[writes].begin(), changed_[writes].end(), 0);
}

bool
BankIndex::hasWriteTo(const MemRequest &r) const
{
    if (!holds(r))
        return false;
    const Addr line = r.addr / kLineBytes;
    for (const Entry &e : buckets_[true][flatBank(r)].entries) {
        if (e.row == r.loc.row && e.req->domain == r.domain &&
            e.req->addr / kLineBytes == line)
            return true;
    }
    return false;
}

template <class Self, class Ar>
void
TransactionQueue::io(Self &self, Ar &ar, const ClientOf &clientOf)
{
    ar.section("txq");
    if constexpr (Ar::loading) {
        if (self.totals_) {
            self.totals_->reads -= self.readCount();
            self.totals_->writes -= self.writeCount();
            ++self.totals_->mutations;
            for (const auto &req : self.entries_)
                self.totals_->banks.unfile(*req);
        }
        self.reads_ = 0;
        self.prefetches_ = 0;
        ++self.mutations_;
    }
    ar.seq(self.entries_, [&](auto &req) {
        ioRequest(req, ar, clientOf);
        if constexpr (Ar::loading) {
            if (req->isRead())
                ++self.reads_;
            if (req->type == ReqType::Prefetch)
                ++self.prefetches_;
            if (self.totals_) {
                if (!self.totals_->banks.holds(*req))
                    ar.fail("queued request outside the bank index");
                self.totals_->banks.file(*req);
            }
        }
    });
    if constexpr (Ar::loading) {
        if (self.totals_) {
            self.totals_->reads += self.readCount();
            self.totals_->writes += self.writeCount();
        }
    }
}

void
TransactionQueue::saveState(Serializer &s) const
{
    io(*this, s, {});
}

void
TransactionQueue::restoreState(Deserializer &d, const ClientOf &clientOf)
{
    io(*this, d, clientOf);
}

TransactionQueue::TransactionQueue(size_t readCapacity,
                                   size_t writeCapacity,
                                   QueueTotals *totals)
    : readCap_(readCapacity), writeCap_(writeCapacity), totals_(totals)
{
    panic_if(readCapacity == 0 || writeCapacity == 0,
             "transaction queue capacities must be nonzero");
}

void
TransactionQueue::push(std::unique_ptr<MemRequest> req)
{
    panic_if(full(req->type),
             "push to full transaction queue (domain {})", req->domain);
    if (totals_) {
        totals_->banks.file(*req);
        ++(req->isRead() ? totals_->reads : totals_->writes);
        ++totals_->mutations;
    }
    if (req->isRead())
        ++reads_;
    if (req->type == ReqType::Prefetch)
        ++prefetches_;
    entries_.push_back(std::move(req));
    ++mutations_;
}

const MemRequest *
TransactionQueue::head() const
{
    return entries_.empty() ? nullptr : entries_.front().get();
}

MemRequest *
TransactionQueue::findOldest(
    const std::function<bool(const MemRequest &)> &pred)
{
    for (const auto &e : entries_) {
        if (pred(*e))
            return e.get();
    }
    return nullptr;
}

const MemRequest *
TransactionQueue::findOldest(
    const std::function<bool(const MemRequest &)> &pred) const
{
    for (const auto &e : entries_) {
        if (pred(*e))
            return e.get();
    }
    return nullptr;
}

std::unique_ptr<MemRequest>
TransactionQueue::popOldest()
{
    panic_if(entries_.empty(), "popOldest on empty queue");
    return take(entries_.front().get());
}

std::unique_ptr<MemRequest>
TransactionQueue::take(const MemRequest *req)
{
    auto it = std::find_if(entries_.begin(), entries_.end(),
                           [req](const auto &e) { return e.get() == req; });
    panic_if(it == entries_.end(), "take: request not in queue");
    if (client_ && full(req->type))
        client_->poke();
    auto out = std::move(*it);
    entries_.erase(it);
    if (out->isRead())
        --reads_;
    if (out->type == ReqType::Prefetch)
        --prefetches_;
    ++mutations_;
    if (totals_) {
        totals_->banks.unfile(*out);
        --(out->isRead() ? totals_->reads : totals_->writes);
        ++totals_->mutations;
    }
    return out;
}

bool
TransactionQueue::hasEntryFor(Addr lineAddr) const
{
    const Addr line = lineAddr / kLineBytes;
    for (const auto &e : entries_) {
        if (e->addr / kLineBytes == line)
            return true;
    }
    return false;
}

} // namespace memsec::mem
