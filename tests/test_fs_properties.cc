/**
 * @file
 * Property tests over the FS scheduler family, swept across map
 * partitions, triple alternation and random traffic seeds:
 *
 *  1. Service guarantee — any single request completes within a small
 *     constant number of frames of its arrival (the paper's "a thread
 *     is guaranteed service of its next memory request" claims).
 *  2. Slot alignment — every read completion lands on the same cycle
 *     residue modulo the slot spacing: the externally visible service
 *     grid is rigid, which is the essence of fixed service.
 *  3. Under random mixed traffic the independent timing checker never
 *     fires (conflict freedom under adversarial patterns).
 */

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "mem/memory_controller.hh"
#include "sched/fs.hh"
#include "util/random.hh"

using namespace memsec;
using namespace memsec::mem;
using namespace memsec::sched;

namespace {

struct Rig : MemClient
{
    /** Point 0..3: rank, bank and no partitioning, then triple
     *  alternation. */
    Rig(int point, unsigned domains)
        : map(dram::Geometry{},
              point == 0   ? Partition::Rank
              : point == 1 ? Partition::Bank
                           : Partition::None,
              Interleave::ClosePage, domains)
    {
        MemoryController::Params p;
        p.numDomains = domains;
        p.queueCapacity = 16;
        mc = std::make_unique<MemoryController>("mc", p, map);
        FsScheduler::Params fp;
        fp.triple = point == 3;
        auto s = std::make_unique<FsScheduler>(*mc, fp);
        fs = s.get();
        mc->setScheduler(std::move(s));
    }

    void memResponse(const MemRequest &req) override
    {
        completions.push_back({req.arrival, req.completed});
    }

    void
    inject(DomainId d, Addr a, ReqType t)
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

    AddressMap map;
    std::unique_ptr<MemoryController> mc;
    FsScheduler *fs = nullptr;
    std::vector<std::pair<Cycle, Cycle>> completions;
    Cycle now = 0;
};

} // namespace

class FsPropertySweep
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>>
{
  protected:
    int point() const { return std::get<0>(GetParam()); }
    uint64_t seed() const { return std::get<1>(GetParam()); }
};

TEST_P(FsPropertySweep, RandomTrafficIsConflictFreeAndBounded)
{
    Rig rig(point(), 8);
    Rng rng(seed());
    const Cycle frame = rig.fs->frameLength();
    // Triple alternation may need up to `groups` frames for a head
    // whose bank group is out of rotation, plus queueing behind up to
    // 15 earlier same-domain requests.
    const Cycle perReqBound = 4 * frame + 64;

    uint64_t injected = 0;
    for (; rig.now < 40 * frame;) {
        rig.runTo(rig.now + 1 + rng.below(frame / 2));
        const DomainId d = static_cast<DomainId>(rng.below(8));
        if (rig.mc->canAccept(d) &&
            rig.mc->queue(d).readCount() < 4) {
            rig.inject(d, rng.below(1u << 26) * kLineBytes,
                       rng.chance(0.3) ? ReqType::Write
                                       : ReqType::Read);
            ++injected;
        }
    }
    rig.runTo(rig.now + 8 * frame);

    ASSERT_GT(injected, 20u);
    // Low backlog at injection time: each request must complete
    // within the per-request bound (service guarantee).
    ASSERT_GE(rig.completions.size(), injected * 6 / 10);
    for (const auto &[arrival, completed] : rig.completions) {
        EXPECT_LE(completed - arrival, 5 * perReqBound)
            << "arrival " << arrival;
    }
    // Zero violations recorded by the independent auditor.
    EXPECT_TRUE(rig.mc->dram().checker().violations().empty());
}

TEST_P(FsPropertySweep, ReadCompletionsShareOneSlotResidue)
{
    Rig rig(point(), 8);
    Rng rng(seed() ^ 0xFACE);
    for (; rig.now < 3000;) {
        rig.runTo(rig.now + 1 + rng.below(20));
        const DomainId d = static_cast<DomainId>(rng.below(8));
        if (rig.mc->canAccept(d))
            rig.inject(d, rng.below(1u << 22) * kLineBytes,
                       ReqType::Read);
    }
    rig.runTo(rig.now + 2000);
    ASSERT_GT(rig.completions.size(), 30u);
    const Cycle l = rig.fs->slotSpacing();
    const Cycle residue = rig.completions.front().second % l;
    for (const auto &[arrival, completed] : rig.completions) {
        (void)arrival;
        EXPECT_EQ(completed % l, residue)
            << "completion " << completed << " off the service grid";
    }
}

namespace {

// Outside the macro: commas inside braced initialisers confuse the
// INSTANTIATE macro's argument splitting.
std::string
sweepName(const ::testing::TestParamInfo<std::tuple<int, uint64_t>>
              &info)
{
    static const char *names[4] = {"rank", "bank", "nopart", "triple"};
    return std::string(names[std::get<0>(info.param)]) + "_s" +
           std::to_string(std::get<1>(info.param));
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, FsPropertySweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3), // Rig points
                       ::testing::Values(11ull, 22ull, 33ull)),
    sweepName);
