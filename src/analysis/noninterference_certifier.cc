#include "analysis/noninterference_certifier.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "mem/address_map.hh"
#include "mem/memory_controller.hh"
#include "util/logging.hh"
#include "util/sim_error.hh"

namespace memsec::analysis {

namespace {

/** Queue depth of the modelled controller (mirrors the test rigs). */
constexpr size_t kQueueCap = 16;

/** Probe-profile injection period; prime, so it never locks to a
 *  slot frame and the probes sample many frame phases. */
constexpr Cycle kProbePeriod = 97;

/** Records the observer's service timeline (the audit observable). */
struct Recorder : mem::MemClient
{
    std::vector<core::ServiceEvent> events;

    void
    memResponse(const mem::MemRequest &req) override
    {
        events.push_back(
            core::ServiceEvent{events.size(), req.arrival,
                               req.completed});
    }
};

/** Absorbs co-runner completions (their view is not the observable). */
struct Sink : mem::MemClient
{
    void memResponse(const mem::MemRequest &req) override { (void)req; }
};

/** The map the scheme's pipeline is solved for. */
mem::AddressMap
mapFor(const CertifierConfig &cfg)
{
    return mem::AddressMap(dram::Geometry{},
                           sched::solvedPartition(cfg.scheme, cfg.fs.mode),
                           mem::Interleave::ClosePage, cfg.numDomains);
}

std::unique_ptr<sched::Scheduler>
buildScheduler(const CertifierConfig &cfg, mem::MemoryController &mc)
{
    if (cfg.makeScheduler)
        return cfg.makeScheduler(mc);
    sched::SchedSpec spec;
    spec.kind = cfg.scheme;
    spec.fs = cfg.fs;
    spec.tp.turnLength = cfg.tpTurnLength;
    return sched::makeScheduler(mc, spec);
}

/** Frame-equivalent used to size the horizon (FS frame, reordered
 *  interval, TP round; a fixed budget for schedulers without a
 *  natural period). */
Cycle
frameLength(const CertifierConfig &cfg, const sched::Scheduler &s)
{
    if (cfg.makeScheduler)
        return 512;
    switch (cfg.scheme) {
      case CertScheme::Fs:
        return static_cast<const sched::FsScheduler &>(s).frameLength();
      case CertScheme::FsReordered:
        return static_cast<const sched::FsReorderedScheduler &>(s)
            .intervalLength();
      case CertScheme::Tp:
        return static_cast<Cycle>(cfg.tpTurnLength) * cfg.numDomains;
      case CertScheme::FrFcfs: return 512;
    }
    panic("bad cert scheme {}", static_cast<int>(cfg.scheme));
}

std::string
domainSet(uint32_t assignment)
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (unsigned d = 0; d < 32; ++d) {
        if (!(assignment & (1u << d)))
            continue;
        if (!first)
            os << ",";
        os << d;
        first = false;
    }
    os << "}";
    return os.str();
}

} // namespace

const char *
observerProfileName(ObserverProfile p)
{
    switch (p) {
      case ObserverProfile::Probe: return "probe";
      case ObserverProfile::Backlogged: return "backlogged";
    }
    panic("bad observer profile {}", static_cast<int>(p));
}

const char *
scenarioName(unsigned scenario)
{
    switch (scenario) {
      case 0: return "sustained";
      case 1: return "phase-shifted";
      case 2: return "burst";
    }
    return "unknown";
}

std::string
CertWitness::toString() const
{
    std::ostringstream os;
    os << "co-runners " << domainSet(assignment) << " backlogged ("
       << scenarioName(scenario) << ") vs all idle, observer profile "
       << observerProfileName(profile) << ": ";
    if (errorMismatch) {
        os << "recoverable-error counts diverge after " << index
           << " identical observations";
        return os.str();
    }
    if (countMismatch) {
        os << "service timelines diverge in length at observation #"
           << index;
    } else {
        os << "observation #" << index << " expected (arrival "
           << expected.arrival << ", completed " << expected.completed
           << ") got (arrival " << observed.arrival << ", completed "
           << observed.completed << ")";
    }
    os << "; first divergence at cycle " << firstDivergenceCycle;
    return os.str();
}

std::string
CertifyResult::summary() const
{
    std::ostringstream os;
    os << scheduler << ": ";
    if (certified) {
        os << "CERTIFIED — observer timeline invariant over "
           << assignmentsChecked << " (profile, co-runner-subset) "
           << "points x " << kCertScenarios << " backlog phasings ("
           << runsChecked << " runs, horizon " << horizonCycles
           << " cycles, " << observations
           << " probe observations per run)";
    } else {
        os << "NOT CERTIFIED (witness after " << runsChecked
           << " runs): " << (hasWitness ? witness.toString() : "");
    }
    return os.str();
}

NoninterferenceCertifier::NoninterferenceCertifier(
    const CertifierConfig &cfg)
    : cfg_(cfg)
{
    fatal_if(cfg_.numDomains < 2, "certifier needs >= 2 domains");
    fatal_if(cfg_.numDomains > 16,
             "lattice of 2^{} co-runner subsets is unreasonable",
             cfg_.numDomains - 1);
    fatal_if(cfg_.observer >= cfg_.numDomains,
             "observer domain {} out of range", cfg_.observer);
}

Cycle
NoninterferenceCertifier::horizon() const
{
    const mem::AddressMap map = mapFor(cfg_);
    mem::MemoryController::Params p;
    p.numDomains = cfg_.numDomains;
    p.queueCapacity = kQueueCap;
    mem::MemoryController mc("cert-scratch", p, map);
    const Cycle frameLen = frameLength(cfg_, *buildScheduler(cfg_, mc));

    Cycle h = static_cast<Cycle>(cfg_.horizonFrames) * frameLen;
    // Refresh epochs recur every tREFI; the horizon must contain
    // several whole epochs (including the rollover from one to the
    // next) or the blackout boundary states would go unexplored.
    if (cfg_.scheme == CertScheme::Fs && cfg_.fs.refresh)
        h = std::max<Cycle>(h, 2 * p.timing.refi + 4 * frameLen);
    return std::max<Cycle>(h, 2000);
}

NoninterferenceCertifier::Trace
NoninterferenceCertifier::run(ObserverProfile profile, unsigned scenario,
                              uint32_t assignment, Cycle horizon) const
{
    const mem::AddressMap map = mapFor(cfg_);
    mem::MemoryController::Params p;
    p.numDomains = cfg_.numDomains;
    p.queueCapacity = kQueueCap;
    mem::MemoryController mc("cert", p, map);

    // Timing violations under an armed fault must surface as
    // recoverable errors in the trace, not kill the certifier.
    RunReport report;
    mc.setReport(&report);

    std::unique_ptr<sched::Scheduler> s = buildScheduler(cfg_, mc);
    const Cycle drainTail = 4 * frameLength(cfg_, *s) + 2048;
    Trace t;
    t.schedName = s->name();
    mc.setScheduler(std::move(s));

    std::unique_ptr<fault::FaultInjector> inj;
    if (cfg_.fault.kind != fault::FaultKind::None) {
        inj = std::make_unique<fault::FaultInjector>(cfg_.fault);
        mc.attachFaultInjector(inj.get());
    }

    Recorder obs;
    Sink sink;
    for (DomainId d = 0; d < cfg_.numDomains; ++d) {
        mc.registerClient(d, d == cfg_.observer
                                 ? static_cast<mem::MemClient *>(&obs)
                                 : static_cast<mem::MemClient *>(&sink));
    }

    std::vector<uint64_t> seq(cfg_.numDomains, 0);
    auto inject = [&](DomainId d, mem::ReqType type, Cycle now) {
        auto r = std::make_unique<mem::MemRequest>();
        r->domain = d;
        r->type = type;
        r->addr = 0x4000 + seq[d]++ * (64ull * 8);
        r->client = d == cfg_.observer
                        ? static_cast<mem::MemClient *>(&obs)
                        : static_cast<mem::MemClient *>(&sink);
        mc.access(std::move(r), now);
    };

    // Backlog phasing: sustained pressure, a phase-shifted start, and
    // a mid-run burst whose end lets the queues drain back to empty —
    // together they cross every queue-occupancy boundary (empty ->
    // full -> empty) at several alignments against the slot frame.
    auto backlogOn = [&](Cycle now) {
        switch (scenario) {
          case 0: return true;
          case 1: return now >= horizon / 3;
          default: return now >= horizon / 4 && now < horizon / 2;
        }
    };

    const Cycle end = horizon + drainTail;
    for (Cycle now = 0; now < end; ++now) {
        if (now < horizon) {
            if (profile == ObserverProfile::Probe) {
                if (now % kProbePeriod == 0 &&
                    mc.canAccept(cfg_.observer, mem::ReqType::Read))
                    inject(cfg_.observer, mem::ReqType::Read, now);
            } else {
                while (mc.canAccept(cfg_.observer, mem::ReqType::Read))
                    inject(cfg_.observer, mem::ReqType::Read, now);
            }
            if (backlogOn(now)) {
                for (DomainId d = 0; d < cfg_.numDomains; ++d) {
                    if (d == cfg_.observer ||
                        !(assignment & (1u << d)))
                        continue;
                    for (;;) {
                        const mem::ReqType ty =
                            seq[d] % 3 == 2 ? mem::ReqType::Write
                                            : mem::ReqType::Read;
                        if (!mc.canAccept(d, ty))
                            break;
                        inject(d, ty, now);
                    }
                }
            }
        }
        mc.tick(now);
    }

    t.errors = report.total();
    t.events = std::move(obs.events);
    return t;
}

namespace {

/** Compare a run against the reference; fill the witness on the
 *  first divergence. */
bool
diverges(const std::vector<core::ServiceEvent> &ref, uint64_t refErrors,
         const std::vector<core::ServiceEvent> &got, uint64_t gotErrors,
         CertWitness &w)
{
    const auto first = core::firstServiceDivergence(ref, got);
    if (!first) {
        if (refErrors == gotErrors)
            return false;
        w.index = ref.size();
        w.errorMismatch = true;
        return true;
    }
    const size_t i = *first;
    w.index = i;
    if (i < ref.size() && i < got.size()) {
        w.expected = ref[i];
        w.observed = got[i];
        w.firstDivergenceCycle =
            ref[i].arrival != got[i].arrival
                ? std::min(ref[i].arrival, got[i].arrival)
                : std::min(ref[i].completed, got[i].completed);
        return true;
    }
    w.countMismatch = true;
    const core::ServiceEvent &next = ref.size() > i ? ref[i] : got[i];
    if (ref.size() > i)
        w.expected = next;
    else
        w.observed = next;
    w.firstDivergenceCycle = next.arrival;
    return true;
}

} // namespace

CertifyResult
NoninterferenceCertifier::certify() const
{
    CertifyResult res;
    res.numDomains = cfg_.numDomains;
    const Cycle h = horizon();
    res.horizonCycles = h;

    // Non-observer demand lattice, swept in (popcount, value) order
    // so the first witness found is a *minimal* distinguishing pair.
    std::vector<uint32_t> masks;
    for (uint32_t m = 1; m < (1u << cfg_.numDomains); ++m) {
        if (!(m & (1u << cfg_.observer)))
            masks.push_back(m);
    }
    std::stable_sort(masks.begin(), masks.end(),
                     [](uint32_t a, uint32_t b) {
                         const int pa = std::popcount(a);
                         const int pb = std::popcount(b);
                         return pa != pb ? pa < pb : a < b;
                     });

    for (const ObserverProfile profile :
         {ObserverProfile::Probe, ObserverProfile::Backlogged}) {
        const Trace ref = run(profile, 0, 0, h);
        ++res.runsChecked;
        if (profile == ObserverProfile::Probe) {
            res.observations = ref.events.size();
            res.scheduler = ref.schedName;
        }
        for (const uint32_t m : masks) {
            ++res.assignmentsChecked;
            for (unsigned sc = 0; sc < kCertScenarios; ++sc) {
                const Trace t = run(profile, sc, m, h);
                ++res.runsChecked;
                if (diverges(ref.events, ref.errors, t.events,
                             t.errors, res.witness)) {
                    res.witness.assignment = m;
                    res.witness.scenario = sc;
                    res.witness.profile = profile;
                    res.hasWitness = true;
                    return res;
                }
            }
        }
    }
    res.certified = true;
    return res;
}

std::vector<PaperCertPoint>
paperCertPoints(unsigned numDomains)
{
    auto mk = [&](sched::FsMode mode, core::PeriodicRef ref) {
        CertifierConfig c;
        c.scheme = CertScheme::Fs;
        c.fs.mode = mode;
        c.fs.pinRef = true;
        c.fs.ref = ref;
        c.numDomains = numDomains;
        return c;
    };
    using sched::FsMode;
    using core::PeriodicRef;
    return {
        {"fs data/rank", 7,
         mk(FsMode::RankPart, PeriodicRef::Data)},
        {"fs ras/rank", 12, mk(FsMode::RankPart, PeriodicRef::Ras)},
        {"fs ras/bank", 15, mk(FsMode::BankPart, PeriodicRef::Ras)},
        {"fs data/bank", 21, mk(FsMode::BankPart, PeriodicRef::Data)},
        {"fs ras/none", 43, mk(FsMode::NoPart, PeriodicRef::Ras)},
    };
}

} // namespace memsec::analysis
