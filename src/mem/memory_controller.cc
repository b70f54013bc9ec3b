#include "mem/memory_controller.hh"

#include <algorithm>
#include <functional>

#include "fault/fault_injector.hh"
#include "sched/scheduler.hh"
#include "util/logging.hh"
#include "util/serialize.hh"
#include "util/sim_error.hh"

namespace memsec::mem {

MemoryController::MemoryController(std::string name, const Params &params,
                                   const AddressMap &map)
    : Component(std::move(name)), map_(map),
      dram_(params.timing, params.geo),
      queueTotals_(params.geo.ranksPerChannel, params.geo.banksPerRank)
{
    fatal_if(params.numDomains == 0, "controller needs >= 1 domain");
    for (unsigned d = 0; d < params.numDomains; ++d)
        queues_.emplace_back(params.queueCapacity, params.queueCapacity,
                             &queueTotals_);
    prefetchQueues_.resize(params.numDomains);
    clients_.assign(params.numDomains, nullptr);
    stats_.readLatencyHist.init(0.0, 32.0, 64);
    // Fine bins and a deep range: p99.9 needs resolution, and an
    // overloaded open-loop tail beyond 16k cycles should report +inf
    // (SLA blown) rather than clamp.
    stats_.domainReadLatency.resize(params.numDomains);
    for (auto &h : stats_.domainReadLatency)
        h.init(0.0, 16.0, 1024);
}

MemoryController::~MemoryController() = default;

void
MemoryController::registerClient(DomainId domain, MemClient *client)
{
    panic_if(domain >= clients_.size(), "bad domain {}", domain);
    clients_[domain] = client;
    queues_[domain].setClient(dynamic_cast<Component *>(client));
}

MemClient *
MemoryController::clientFor(DomainId domain) const
{
    return domain < clients_.size() ? clients_[domain] : nullptr;
}

void
MemoryController::setScheduler(std::unique_ptr<sched::Scheduler> sched)
{
    sched_ = std::move(sched);
    if (sched_ && injector_)
        sched_->attachFaultInjector(injector_);
}

void
MemoryController::setReport(RunReport *report)
{
    report_ = report;
    dram_.setReport(report);
}

void
MemoryController::attachFaultInjector(fault::FaultInjector *inj)
{
    injector_ = inj;
    dram_.attachFaultInjector(inj);
    if (sched_)
        sched_->attachFaultInjector(inj);
}

sched::Scheduler &
MemoryController::scheduler()
{
    panic_if(!sched_, "no scheduler installed");
    return *sched_;
}

void
MemoryController::beginMeasurement()
{
    for (Histogram &h : stats_.domainReadLatency)
        h.reset();
}

bool
MemoryController::canAccept(DomainId domain, ReqType type) const
{
    return !queues_.at(domain).full(type);
}

void
MemoryController::access(std::unique_ptr<MemRequest> req, Cycle now)
{
    poke();
    panic_if(req->domain >= queues_.size(), "bad domain {}", req->domain);
    TransactionQueue &q = queues_[req->domain];
    if (req->type != ReqType::Prefetch && q.full(req->type)) {
        // Without a report this is a caller bug (canAccept was not
        // checked); with one it is a survivable overflow: drop the
        // transaction, record it, tell the client.
        panic_if(!report_,
                 "access() with full queue; check canAccept first");
        stats_.overflowDrops.inc();
        report_->record({now, "queue-overflow",
                         req->toString() + " dropped: domain " +
                             std::to_string(req->domain) +
                             " queue full"});
        if (req->client)
            req->client->memDropped(*req);
        return;
    }

    req->arrival = now;
    if (req->id == 0)
        req->id = ++reqIdSeq_;
    req->loc = map_.decode(req->domain, req->addr);

    switch (req->type) {
      case ReqType::Prefetch: {
        // Prefetches are hints: they wait in a side queue and are
        // dropped rather than ever exerting backpressure.
        if (q.hasEntryFor(req->addr))
            return;
        auto &pq = prefetchQueues_[req->domain];
        stats_.prefetches.inc();
        pq.push_back(std::move(req));
        if (pq.size() > kPrefetchQueueCap) {
            auto dropped = std::move(pq.front());
            pq.pop_front();
            if (dropped->client)
                dropped->client->memDropped(*dropped);
        }
        return;
      }
      case ReqType::Read: {
        // Store-to-load bypass: a queued write to the same line can
        // service the read without a DRAM access.
        if (queueTotals_.banks.hasWriteTo(*req)) {
            stats_.forwarded.inc();
            req->completed = now;
            if (req->client)
                req->client->memResponse(*req);
            return;
        }
        // A demand read supersedes a same-line prefetch hint...
        auto &pq = prefetchQueues_[req->domain];
        for (auto it = pq.begin(); it != pq.end(); ++it) {
            if ((*it)->addr / kLineBytes == req->addr / kLineBytes) {
                pq.erase(it);
                break;
            }
        }
        // ...and rides a same-line prefetch already in the queue
        // (same client, same line: one response completes both).
        const Addr line = req->addr / kLineBytes;
        if (q.prefetchCount() > 0 &&
            q.findOldest([line](const MemRequest &e) {
                return e.type == ReqType::Prefetch &&
                       e.addr / kLineBytes == line;
            })) {
            stats_.mergedWithPrefetch.inc();
            return;
        }
        stats_.demandReads.inc();
        break;
      }
      case ReqType::Write:
        // Write merging: a second writeback to a queued line is
        // absorbed by the queue entry.
        if (queueTotals_.banks.hasWriteTo(*req)) {
            stats_.mergedWrites.inc();
            return;
        }
        stats_.writes.inc();
        break;
      case ReqType::Dummy:
        panic("dummy requests are scheduler-internal, not access()-ed");
    }
    q.push(std::move(req));
}

TransactionQueue &
MemoryController::queue(DomainId domain)
{
    return queues_.at(domain);
}

const TransactionQueue &
MemoryController::queue(DomainId domain) const
{
    return queues_.at(domain);
}

std::deque<std::unique_ptr<MemRequest>> &
MemoryController::prefetchQueue(DomainId d)
{
    return prefetchQueues_.at(d);
}

void
MemoryController::finishRequest(std::unique_ptr<MemRequest> req,
                                Cycle completeAt)
{
    // A clientless non-read has no observer left: delivering it would
    // touch no stats and notify no one (clientless *reads* — injector
    // ghosts — still sample read latency, so they stay). Retire the
    // storage immediately instead of round-tripping the completion
    // queue.
    if (!req->client && req->type != ReqType::Read)
        return;
    completions_.push_back({completeAt, completionSeq_++, std::move(req)});
    std::push_heap(completions_.begin(), completions_.end(),
                   std::greater<>{});
}

void
MemoryController::noteBurst(bool dummy)
{
    if (dummy)
        stats_.dummyBursts.inc();
    else
        stats_.realBursts.inc();
}

void
MemoryController::tick(Cycle now)
{
    panic_if(!sched_, "MemoryController ticked without a scheduler");

    // Queue-overflow injection: flood the queues with ghost reads
    // (no client, rotating domain) until one hits a full queue and
    // exercises the overflow path above.
    if (injector_ && injector_->overflowFires(now)) {
        auto ghost = std::make_unique<MemRequest>();
        ghost->domain = static_cast<DomainId>(now % queues_.size());
        ghost->type = ReqType::Read;
        ghost->addr = (now % 4096) * kLineBytes;
        access(std::move(ghost), now);
    }

    // Deliver completions due this cycle before scheduling, so cores
    // observe data at the earliest consistent time.
    while (!completions_.empty() && completions_.front().at <= now) {
        std::pop_heap(completions_.begin(), completions_.end(),
                      std::greater<>{});
        const PendingCompletion pc = std::move(completions_.back());
        completions_.pop_back();
        MemRequest &req = *pc.req;
        req.completed = pc.at;
        if (req.type == ReqType::Read) {
            const double lat =
                static_cast<double>(req.completed - req.arrival);
            stats_.readLatency.sample(lat);
            stats_.readLatencyHist.sample(lat);
            if (req.domain < stats_.domainReadLatency.size()) {
                const Cycle from = req.issued != kNoCycle
                                       ? req.issued
                                       : req.arrival;
                stats_.domainReadLatency[req.domain].sample(
                    static_cast<double>(req.completed - from));
            }
        }
        if (req.client)
            req.client->memResponse(req);
    }

    sched_->tick(now);
    dram_.tick(now);
}

Cycle
MemoryController::nextWakeCycle(Cycle now) const
{
    // A fault injector probes every cycle (overflow floods, skew
    // schedules keyed on the raw cycle number): never skip under
    // injection.
    if (injector_ || !sched_)
        return now + 1;
    Cycle wake = sched_->nextWakeCycle(now);
    if (!completions_.empty())
        wake = std::min(wake, completions_.front().at);
    return std::max(wake, now + 1);
}

void
MemoryController::fastForward(Cycle from, Cycle to)
{
    // The span is quiet; only the DRAM energy clock moves.
    dram_.fastForwardEnergy(from, to);
}

template <class Self, class Ar>
void
MemoryController::io(Self &self, Ar &ar)
{
    ar.section("mc");
    ar.io(self.dram_);
    const auto clientOf = [&self](const MemRequest &req) {
        return self.clientFor(req.domain);
    };
    ar.sized(self.queues_, "transaction queue count mismatch",
             [&](auto &q) {
                 if constexpr (Ar::loading)
                     q.restoreState(ar, clientOf);
                 else
                     q.saveState(ar);
             });
    ar.sized(self.prefetchQueues_, "prefetch queue count mismatch",
             [&](auto &pq) {
                 ar.seq(pq, [&](auto &req) { ioRequest(req, ar, clientOf); });
             });
    // The pending completions travel in delivery order, whatever the
    // heap's layout.
    const auto walk = [&](auto &pc) {
        ar.io(pc.at, pc.seq);
        ioRequest(pc.req, ar, clientOf);
    };
    if constexpr (Ar::loading) {
        ar.seq(self.completions_, walk);
        std::make_heap(self.completions_.begin(), self.completions_.end(),
                       std::greater<>{});
    } else {
        std::vector<const PendingCompletion *> order;
        for (const PendingCompletion &pc : self.completions_)
            order.push_back(&pc);
        std::sort(order.begin(), order.end(),
                  [](const auto *a, const auto *b) { return *b > *a; });
        ar.seq(order, [&](const PendingCompletion *pc) { walk(*pc); });
    }
    ar.io(self.completionSeq_, self.reqIdSeq_, self.stats_);
    panic_if(!self.sched_, "checkpoint without a scheduler");
    ar.io(*self.sched_);
}

void
MemoryController::saveState(Serializer &s) const
{
    io(*this, s);
}

void
MemoryController::restoreState(Deserializer &d)
{
    io(*this, d);
}

void
MemoryController::registerStats(StatGroup &group) const
{
    group.add("demand_reads", &stats_.demandReads,
              "demand reads accepted");
    group.add("writes", &stats_.writes, "writebacks accepted");
    group.add("prefetches", &stats_.prefetches, "prefetch reads accepted");
    group.add("dummies", &stats_.dummies, "dummy operations inserted");
    group.add("forwarded", &stats_.forwarded, "store-to-load forwards");
    group.add("merged_writes", &stats_.mergedWrites, "write merges");
    group.add("read_latency", &stats_.readLatency,
              "mean demand-read latency (memory cycles)");
    group.add("real_bursts", &stats_.realBursts, "real data bursts");
    group.add("dummy_bursts", &stats_.dummyBursts, "dummy data bursts");
    group.add("overflow_drops", &stats_.overflowDrops,
              "transactions dropped on queue overflow");
    group.addFormula(
        "timing_violations",
        [this] {
            return static_cast<double>(dram_.checker().violationCount());
        },
        "timing-rule violations detected by the shadow checker");
    group.addFormula(
        "illegal_issues",
        [this] { return static_cast<double>(dram_.illegalIssues()); },
        "illegal command issues survived in non-strict mode");
    group.addFormula(
        "injected_faults",
        [this] {
            return injector_ ? static_cast<double>(injector_->injected())
                             : 0.0;
        },
        "faults injected into this controller");
}

double
MemoryController::effectiveBandwidth(Cycle elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    const double realCycles = static_cast<double>(
        stats_.realBursts.value() * dram_.timing().burst);
    return realCycles / static_cast<double>(elapsed);
}

} // namespace memsec::mem
