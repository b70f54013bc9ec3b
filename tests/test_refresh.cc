/**
 * @file
 * Refresh support — the paper's interval analysis ignores refresh; a
 * deployable controller cannot. The baseline refreshes each rank on a
 * staggered tREFI deadline; FS pauses its pipeline at wall-clock-
 * deterministic epochs so the refresh schedule cannot carry any
 * domain's information.
 */

#include <gtest/gtest.h>

#include "core/noninterference.hh"
#include "harness/experiment.hh"
#include "mem/memory_controller.hh"
#include "sched/frfcfs.hh"
#include "sched/fs.hh"
#include "sim/simulator.hh"

using namespace memsec;
using namespace memsec::mem;
using namespace memsec::sched;

namespace {

struct FsRig
{
    explicit FsRig(bool refresh)
        : map(dram::Geometry{}, Partition::Rank, Interleave::ClosePage,
              8)
    {
        MemoryController::Params p;
        p.numDomains = 8;
        mc = std::make_unique<MemoryController>("mc", p, map);
        FsScheduler::Params fp;
        fp.refresh = refresh;
        auto s = std::make_unique<FsScheduler>(*mc, fp);
        fs = s.get();
        mc->setScheduler(std::move(s));
    }

    void
    run(Cycle cycles)
    {
        for (Cycle t = 0; t < cycles; ++t)
            mc->tick(t);
    }

    AddressMap map;
    std::unique_ptr<MemoryController> mc;
    FsScheduler *fs = nullptr;
};

} // namespace

TEST(RefreshFs, EveryRankRefreshedEachEpoch)
{
    FsRig rig(true);
    const auto &tp = rig.mc->dram().timing();
    rig.run(3 * tp.refi + 1000);
    for (unsigned r = 0; r < 8; ++r) {
        EXPECT_EQ(rig.mc->dram().energy(r).refreshes, 3u)
            << "rank " << r;
    }
}

TEST(RefreshFs, NoRefreshWithoutFlag)
{
    FsRig rig(false);
    rig.run(10000);
    EXPECT_EQ(rig.mc->dram().energy(0).refreshes, 0u);
}

TEST(RefreshFs, EpochStealsBoundedSlots)
{
    FsRig rig(true);
    const auto &tp = rig.mc->dram().timing();
    rig.run(tp.refi + 1500);
    StatGroup g;
    rig.fs->registerStats(g);
    // The blackout is margin + pause ~ (65 + 216) cycles = ~40 slots.
    EXPECT_GT(g.lookup("skipped_slots"), 20.0);
    EXPECT_LT(g.lookup("skipped_slots"), 80.0);
}

TEST(RefreshFs, ConflictFreeUnderLoad)
{
    // Saturate all domains across multiple epochs; the DRAM model
    // panics on any violation (e.g. a slot overlapping the epoch).
    Config c = harness::defaultConfig();
    c.merge(harness::schemeConfig("fs_rp"));
    c.set("dram.refresh", true);
    c.set("workload", "lbm");
    c.set("sim.warmup", 1000);
    c.set("sim.measure", 15000);
    const auto r = harness::runExperiment(c);
    EXPECT_GT(r.demandReads, 0u);
}

TEST(RefreshFs, NonInterferenceHolds)
{
    auto run = [](const std::string &co) {
        Config c = harness::defaultConfig();
        c.merge(harness::schemeConfig("fs_rp"));
        c.set("dram.refresh", true);
        c.set("workload", "mcf," + co + "," + co + "," + co + "," + co +
                              "," + co + "," + co + "," + co);
        c.set("sim.warmup", 0);
        c.set("sim.measure", 20000);
        c.set("audit.core", 0);
        return harness::runExperiment(c).timelines.at(0);
    };
    const auto audit = core::compareTimelines(run("idle"), run("hog"));
    EXPECT_TRUE(audit.identical) << audit.detail;
}

TEST(RefreshBaseline, StaggeredRefreshMeetsDeadlines)
{
    AddressMap map(dram::Geometry{}, Partition::None,
                   Interleave::OpenPage, 4);
    MemoryController::Params p;
    p.numDomains = 4;
    MemoryController mc("mc", p, map);
    auto s = std::make_unique<FrFcfsScheduler>(mc, false, true);
    auto *fr = s.get();
    mc.setScheduler(std::move(s));
    const auto &tp = mc.dram().timing();
    // Deadlines are staggered at (r+1)/8 * tREFI: after ~2.3 tREFI
    // every rank has refreshed 2-3 times, early ranks one more than
    // late ones.
    for (Cycle t = 0; t < 2 * tp.refi + 2000; ++t)
        mc.tick(t);
    EXPECT_GE(fr->refreshes(), 16u);
    EXPECT_LE(fr->refreshes(), 24u);
    for (unsigned r = 0; r < 8; ++r) {
        EXPECT_GE(mc.dram().energy(r).refreshes, 2u) << r;
        EXPECT_LE(mc.dram().energy(r).refreshes, 3u) << r;
    }
}

TEST(RefreshBaseline, RefreshDrainsOpenRowsFirst)
{
    AddressMap map(dram::Geometry{}, Partition::None,
                   Interleave::OpenPage, 1);
    MemoryController::Params p;
    p.numDomains = 1;
    MemoryController mc("mc", p, map);
    auto s = std::make_unique<FrFcfsScheduler>(mc, false, true);
    mc.setScheduler(std::move(s));
    // Keep rows open continuously with demand traffic.
    struct Sink : MemClient
    {
        void memResponse(const MemRequest &) override {}
    } sink;
    const auto &tp = mc.dram().timing();
    uint64_t i = 0;
    for (Cycle t = 0; t < tp.refi + 2000; ++t) {
        if (mc.canAccept(0) && t % 3 == 0) {
            auto r = std::make_unique<MemRequest>();
            r->domain = 0;
            r->type = ReqType::Read;
            r->addr = (i++ % 4096) * kLineBytes;
            r->client = &sink;
            mc.access(std::move(r), t);
        }
        mc.tick(t); // panics if REF issued over an open row
    }
    EXPECT_GE(mc.dram().energy(0).refreshes, 1u);
}

TEST(RefreshBaseline, PerformanceCostIsSmall)
{
    auto run = [](bool refresh) {
        Config c = harness::defaultConfig();
        c.merge(harness::schemeConfig("baseline"));
        c.set("dram.refresh", refresh);
        c.set("workload", "milc");
        c.set("sim.warmup", 2000);
        c.set("sim.measure", 30000);
        double sum = 0;
        for (double v : harness::runExperiment(c).ipc)
            sum += v;
        return sum;
    };
    const double off = run(false);
    const double on = run(true);
    // tRFC/tREFI ~ 3.3% per rank, staggered: a few percent at most.
    EXPECT_GT(on, 0.85 * off);
}
