/**
 * @file
 * The certifier must prove the provable and refute the refutable:
 * certificates for every paper design point (including refresh-epoch
 * rollovers and reordered-FS interval boundaries), a minimal concrete
 * witness for FR-FCFS, and a witness for a deliberately leaky toy
 * scheduler injected through the makeScheduler test hook — the
 * certifier catching a scheduler it has never seen before.
 */

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>

#include "analysis/noninterference_certifier.hh"
#include "mem/memory_controller.hh"
#include "mem/transaction_queue.hh"
#include "sched/scheduler.hh"

using namespace memsec;
using namespace memsec::analysis;

namespace {

/** Runs per config: 2 profiles x (1 reference + 7 subsets x 3
 *  backlog scenarios) at 4 domains. */
constexpr uint64_t kExpectedRuns = 2 * (1 + 7 * 3);

/**
 * A deliberately leaky scheduler: service latency depends on the
 * TOTAL backlog across all domains, the classic shared-FCFS coupling
 * the paper's fixed service removes. The certifier has no special
 * knowledge of it — it arrives through the makeScheduler hook — yet
 * must refuse a certificate with a concrete witness.
 */
class LeakyToyScheduler : public sched::Scheduler
{
  public:
    explicit LeakyToyScheduler(mem::MemoryController &mc)
        : Scheduler(mc)
    {
    }

    void
    tick(Cycle now) override
    {
        if (now < busyUntil_)
            return;
        uint64_t backlog = 0;
        for (DomainId d = 0; d < mc_.numDomains(); ++d)
            backlog += mc_.queue(d).size();
        for (DomainId d = 0; d < mc_.numDomains(); ++d) {
            mem::TransactionQueue &q = mc_.queue(d);
            mem::MemRequest *r = q.findOldest(
                [](const mem::MemRequest &) { return true; });
            if (!r)
                continue;
            auto req = q.take(r);
            req->firstCommand = now;
            // Demand-coupled latency: every queued co-runner
            // transaction delays the observer's completion.
            busyUntil_ = now + 20 + backlog;
            mc_.finishRequest(std::move(req), busyUntil_);
            return;
        }
    }

    std::string name() const override { return "leaky-toy"; }

  private:
    Cycle busyUntil_ = 0;
};

} // namespace

TEST(Certifier, AllFivePaperPointsCertify)
{
    for (const PaperCertPoint &p : paperCertPoints()) {
        const NoninterferenceCertifier cert(p.cfg);
        const CertifyResult res = cert.certify();
        EXPECT_TRUE(res.certified)
            << p.label << " (l=" << p.l << "): " << res.summary();
        EXPECT_FALSE(res.hasWitness) << p.label;
        EXPECT_EQ(res.runsChecked, kExpectedRuns) << p.label;
        EXPECT_GT(res.observations, 0u) << p.label;
    }
}

TEST(Certifier, FrFcfsYieldsMinimalWitness)
{
    CertifierConfig cfg;
    cfg.scheme = CertScheme::FrFcfs;
    cfg.horizonFrames = 8;
    const CertifyResult res = NoninterferenceCertifier(cfg).certify();

    ASSERT_FALSE(res.certified);
    ASSERT_TRUE(res.hasWitness);
    // Assignments are swept in popcount-then-value order, so the
    // reported witness is a MINIMAL distinguishing pair: one single
    // backlogged co-runner suffices to shift the observer.
    EXPECT_EQ(std::popcount(res.witness.assignment), 1);
    EXPECT_EQ(res.witness.assignment & (1u << cfg.observer), 0u)
        << "witness must not implicate the observer itself";
    EXPECT_GT(res.witness.firstDivergenceCycle, 0u);

    // The witness must read as a concrete input pair + divergence.
    const std::string w = res.witness.toString();
    EXPECT_NE(w.find("backlogged"), std::string::npos) << w;
    EXPECT_NE(w.find("divergence"), std::string::npos) << w;
}

TEST(Certifier, RefreshEpochRolloverStillCertifies)
{
    // Refresh blackouts are wall-clock-fixed; the certificate must
    // hold across epoch boundaries. The certifier stretches its
    // horizon past multiple tREFI epochs when refresh is modelled —
    // observable as a strictly longer horizon than the plain point.
    CertifierConfig plain = paperCertPoints()[0].cfg;
    CertifierConfig refresh = plain;
    refresh.fs.refresh = true;

    const CertifyResult p = NoninterferenceCertifier(plain).certify();
    const CertifyResult r =
        NoninterferenceCertifier(refresh).certify();
    EXPECT_TRUE(p.certified) << p.summary();
    EXPECT_TRUE(r.certified) << r.summary();
    EXPECT_GT(r.horizonCycles, p.horizonCycles)
        << "refresh horizon must span multiple tREFI epochs";
}

TEST(Certifier, FsReorderedCertifiesAcrossIntervalBoundaries)
{
    // A prime frame count never divides the reordered scheduler's
    // Q-interval grid evenly, so the horizon ends mid-interval and
    // the burst scenario straddles interval boundaries.
    CertifierConfig cfg;
    cfg.scheme = CertScheme::FsReordered;
    cfg.partition = mem::Partition::Bank;
    cfg.horizonFrames = 13;
    const CertifyResult res = NoninterferenceCertifier(cfg).certify();
    EXPECT_TRUE(res.certified) << res.summary();
    EXPECT_EQ(res.runsChecked, kExpectedRuns);
}

TEST(Certifier, LeakyToySchedulerYieldsWitness)
{
    CertifierConfig cfg;
    cfg.scheme = CertScheme::FrFcfs; // unpartitioned address map
    cfg.horizonFrames = 8;
    cfg.makeScheduler = [](mem::MemoryController &mc) {
        return std::make_unique<LeakyToyScheduler>(mc);
    };
    const CertifyResult res = NoninterferenceCertifier(cfg).certify();

    ASSERT_FALSE(res.certified);
    ASSERT_TRUE(res.hasWitness);
    EXPECT_EQ(res.scheduler, "leaky-toy");
    EXPECT_EQ(std::popcount(res.witness.assignment), 1);
    EXPECT_GT(res.witness.firstDivergenceCycle, 0u);
}

TEST(Certifier, SummaryNamesSchedulerAndVerdict)
{
    const PaperCertPoint p = paperCertPoints().front();
    const CertifyResult res = NoninterferenceCertifier(p.cfg).certify();
    const std::string s = res.summary();
    EXPECT_NE(s.find(res.scheduler), std::string::npos) << s;
    EXPECT_NE(s.find("CERTIFIED"), std::string::npos) << s;
}

TEST(Certifier, RejectsDegenerateDomainCounts)
{
    CertifierConfig solo;
    solo.numDomains = 1; // no co-runners: nothing to certify against
    EXPECT_EXIT(NoninterferenceCertifier{solo},
                ::testing::ExitedWithCode(1), "domains");
    CertifierConfig outOfRange;
    outOfRange.observer = 4; // numDomains = 4 -> invalid
    EXPECT_EXIT(NoninterferenceCertifier{outOfRange},
                ::testing::ExitedWithCode(1), "observer");
}
