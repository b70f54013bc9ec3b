#include <gtest/gtest.h>

#include <fstream>
#include <memory>

#include "cpu/core_model.hh"
#include "cpu/workload.hh"
#include "sched/frfcfs.hh"
#include "sim/simulator.hh"
#include "util/random.hh"
#include "util/serialize.hh"

using namespace memsec;
using namespace memsec::cpu;

namespace {

struct Rig
{
    /** `first`, if given, is registered ahead of the core. Without
     *  `promote` the controller never serves prefetch hints. */
    explicit Rig(const WorkloadProfile &prof,
                 CoreModel::Params cp = CoreModel::Params{},
                 Component *first = nullptr, unsigned queueCapacity = 16,
                 bool promote = true)
        : map(dram::Geometry{}, mem::Partition::None,
              mem::Interleave::ClosePage, 1)
    {
        if (first)
            sim.add(first);
        mem::MemoryController::Params p;
        p.numDomains = 1;
        p.queueCapacity = queueCapacity;
        mc = std::make_unique<mem::MemoryController>("mc", p, map);
        mc->setScheduler(std::make_unique<sched::FrFcfsScheduler>(
            *mc, cp.prefetchEnabled && promote));
        core = std::make_unique<CoreModel>("c0", 0, cp, prof, 42, *mc);
        sim.add(core.get());
        sim.add(mc.get());
    }

    mem::AddressMap map;
    std::unique_ptr<mem::MemoryController> mc;
    std::unique_ptr<CoreModel> core;
    Simulator sim;
};

WorkloadProfile
computeBound()
{
    WorkloadProfile p;
    p.name = "compute";
    p.memRatio = 0.001; // one mem op per ~1000 instructions
    p.storeFraction = 0.0;
    p.footprintLines = 64;
    p.reuseFraction = 0.99;
    p.streamFraction = 0.0;
    return p;
}

WorkloadProfile
memoryBound()
{
    WorkloadProfile p;
    p.name = "membound";
    p.memRatio = 1.0; // every instruction is a memory op
    p.storeFraction = 0.0;
    p.footprintLines = 1 << 22; // never fits
    p.reuseFraction = 0.0;
    p.streamFraction = 0.0;
    p.mshrs = 1; // fully serialised misses
    return p;
}

} // namespace

TEST(CoreModel, ComputeBoundReachesRetireWidth)
{
    Rig rig(computeBound());
    rig.sim.run(20000);
    // 4-wide retirement with (almost) no memory stalls.
    EXPECT_GT(rig.core->ipc(), 3.5);
}

TEST(CoreModel, SerialisedMissesBoundedByLatency)
{
    Rig rig(memoryBound());
    rig.sim.run(20000);
    // One outstanding miss at a time, ~30+ memory cycles each
    // (~120+ CPU cycles): IPC far below 0.1.
    EXPECT_LT(rig.core->ipc(), 0.1);
    EXPECT_GT(rig.core->retired(), 0u);
}

TEST(CoreModel, MlpScalesThroughput)
{
    WorkloadProfile narrow = memoryBound();
    WorkloadProfile wide = memoryBound();
    wide.mshrs = 16;
    Rig a(narrow);
    Rig b(wide);
    a.sim.run(20000);
    b.sim.run(20000);
    EXPECT_GT(b.core->ipc(), a.core->ipc() * 2.0);
}

TEST(CoreModel, WritebacksFlowToController)
{
    WorkloadProfile p = memoryBound();
    p.storeFraction = 0.5;
    p.mshrs = 8;
    p.footprintLines = 1 << 16;
    Rig rig(p);
    rig.sim.run(50000);
    EXPECT_GT(rig.mc->stats().writes.value(), 0u);
}

TEST(CoreModel, FunctionalWarmupFillsLlc)
{
    WorkloadProfile p = computeBound();
    p.footprintLines = 1024;
    p.reuseFraction = 0.0;
    p.memRatio = 0.5;
    CoreModel::Params cp;
    cp.functionalWarmupRecords = 10000;
    Rig rig(p, cp);
    const uint64_t warmMisses = rig.core->llc().misses().value();
    EXPECT_GE(warmMisses, 1024u); // cold fill happened pre-timing
    rig.sim.run(5000);
    // Steady state: footprint resident, nearly everything hits.
    EXPECT_LT(rig.core->llc().misses().value() - warmMisses, 100u);
}

TEST(CoreModel, ProgressCheckpointsMonotone)
{
    WorkloadProfile p = computeBound();
    CoreModel::Params cp;
    cp.progressInterval = 1000;
    Rig rig(p, cp);
    rig.sim.run(5000);
    const auto &prog = rig.core->timeline().progress;
    ASSERT_GT(prog.size(), 3u);
    for (size_t i = 1; i < prog.size(); ++i)
        EXPECT_GT(prog[i], prog[i - 1]);
}

TEST(CoreModel, TimelineCapturesServiceEvents)
{
    WorkloadProfile p = memoryBound();
    p.mshrs = 4;
    CoreModel::Params cp;
    cp.captureTimeline = true;
    Rig rig(p, cp);
    rig.sim.run(10000);
    const auto &svc = rig.core->timeline().service;
    ASSERT_GT(svc.size(), 10u);
    for (const auto &e : svc)
        EXPECT_GE(e.completed, e.arrival);
}

TEST(CoreModel, BeginMeasurementResetsIpcWindow)
{
    Rig rig(computeBound());
    rig.sim.run(1000);
    rig.core->beginMeasurement();
    const double ipcAtStart = rig.core->ipc();
    EXPECT_DOUBLE_EQ(ipcAtStart, 0.0);
    rig.sim.run(1000);
    EXPECT_GT(rig.core->ipc(), 3.0);
}

TEST(CoreModel, StatsRegistered)
{
    Rig rig(computeBound());
    rig.sim.run(2000);
    StatGroup g;
    rig.core->registerStats(g);
    EXPECT_GT(g.lookup("loads"), 0.0);
    EXPECT_GE(g.lookup("ipc"), 0.0);
}

TEST(CoreModel, PrefetcherReducesDemandLatencyOnStreams)
{
    // A compute-bound sequential stream: inter-miss distance exceeds
    // the memory latency, so a timely prefetcher converts nearly
    // every miss into a hit while an unassisted core stalls its
    // (small) ROB on every one.
    WorkloadProfile p;
    p.name = "stream";
    p.memRatio = 0.005;
    p.storeFraction = 0.0;
    p.footprintLines = 1 << 20;
    p.streamFraction = 1.0;
    p.numStreams = 1;
    p.strideLines = 1;
    p.reuseFraction = 0.0;
    p.mshrs = 8;

    CoreModel::Params off;
    CoreModel::Params on;
    on.prefetchEnabled = true;
    Rig a(p, off);
    Rig b(p, on);
    a.sim.run(50000);
    b.sim.run(50000);
    EXPECT_GT(b.core->prefetchIssued(), 0u);
    EXPECT_GT(b.core->prefetchUseful(), 0u);
    EXPECT_GT(b.core->ipc(), a.core->ipc());
}

// -- quiet sub-cycles in closed form -------------------------------

namespace {

/**
 * Pokes `target` at random cycles and sleeps a random span between.
 * Registered after the target, a poke splits the target's catch-up
 * at an arbitrary cycle; registered before it, it also lets the
 * target re-ask whether it is due the same cycle.
 */
class RandomPoker : public Component
{
  public:
    RandomPoker(std::string name, uint64_t seed)
        : Component(std::move(name)), rng_(seed)
    {
    }

    void
    tick(Cycle now) override
    {
        if (target)
            target->poke();
        next_ = now + 1 + rng_.below(48);
    }

    Cycle nextWakeCycle(Cycle now) const override
    {
        (void)now;
        return next_;
    }

    Component *target = nullptr;

  private:
    Rng rng_;
    Cycle next_ = 0;
};

/** Gaps of ~15 instructions, LLC hits, stores and serialised misses:
 *  the ROB fills behind a miss while its head retires gaps. */
WorkloadProfile
gappy()
{
    WorkloadProfile p;
    p.name = "gappy";
    p.memRatio = 1.0 / 16;
    p.storeFraction = 0.3;
    p.footprintLines = 1 << 16;
    p.reuseFraction = 0.5;
    p.mshrs = 2;
    return p;
}

std::string
coreBytes(const CoreModel &core)
{
    Serializer s;
    core.saveState(s);
    return s.take();
}

} // namespace

TEST(CoreModel, QuietSubCyclesMatchSteppingEverySubCycle)
{
    // The reference ticks the core every cycle; the other sleeps
    // through quiet runs in closed form, split at random by pokes.
    // Progress every 7 instructions lands marks mid-gap.
    for (unsigned cpuMult : {1u, 3u, 4u}) {
        for (unsigned width : {1u, 3u, 4u}) {
            const std::string point = "cpuMult=" + std::to_string(cpuMult) +
                                      " retireWidth=" +
                                      std::to_string(width);
            CoreModel::Params cp;
            cp.cpuMult = cpuMult;
            cp.retireWidth = width;
            cp.progressInterval = 7;
            Rig stepped(gappy(), cp);
            stepped.sim.setFastForward(false);
            RandomPoker early("early", cpuMult * 10 + width);
            RandomPoker late("late", cpuMult * 100 + width);
            Rig sleepy(gappy(), cp, &early);
            early.target = sleepy.core.get();
            late.target = sleepy.core.get();
            sleepy.sim.add(&late);

            Rng chunks(width);
            for (int i = 0; i < 24; ++i) {
                const Cycle n = 1 + chunks.below(400);
                stepped.sim.run(n);
                sleepy.sim.run(n);
                ASSERT_EQ(coreBytes(*stepped.core), coreBytes(*sleepy.core))
                    << point << " after cycle " << stepped.sim.now();
            }
            StatGroup a;
            StatGroup b;
            stepped.core->registerStats(a);
            sleepy.core->registerStats(b);
            EXPECT_EQ(a.lookup("rob_stall_cycles"),
                      b.lookup("rob_stall_cycles"))
                << point;
            EXPECT_GT(a.lookup("rob_stall_cycles"), 0.0) << point;
            EXPECT_EQ(stepped.core->timeline().progress,
                      sleepy.core->timeline().progress)
                << point;
            EXPECT_GT(stepped.core->timeline().progress.size(), 100u)
                << point;
            EXPECT_EQ(stepped.core->progressCycle(),
                      sleepy.core->progressCycle())
                << point;
            // The comparison proves nothing unless the core slept.
            EXPECT_GT(sleepy.sim.cyclesSkipped(), 0u) << point;
        }
    }
}

TEST(CoreModel, RetryPathsMatchSteppingEveryCycle)
{
    // Two MSHRs and a two-entry queue keep every retry path busy:
    // store fetches wait for an MSHR, loads wait for queue space, and
    // loads that merge with a prefetch hint wait to upgrade it. The
    // controller never serves the hints (as under FS without prefetch
    // slots), so upgrades are the only way those loads complete, and
    // it sleeps when idle. The slept core gets no random pokes: it
    // wakes only on its own hint or a controller poke.
    WorkloadProfile p;
    p.name = "retry";
    p.memRatio = 1.0 / 6;
    p.storeFraction = 0.4;
    p.footprintLines = 1 << 16;
    p.reuseFraction = 0.2;
    p.streamFraction = 1.0;
    p.numStreams = 2;
    p.strideLines = 1;
    p.mshrs = 2;
    for (unsigned cpuMult : {1u, 4u}) {
        CoreModel::Params cp;
        cp.cpuMult = cpuMult;
        cp.prefetchEnabled = true;
        Rig stepped(p, cp, nullptr, 2, false);
        stepped.sim.setFastForward(false);
        Rig sleepy(p, cp, nullptr, 2, false);
        Rng chunks(cpuMult);
        for (int i = 0; i < 40; ++i) {
            const Cycle n = 1 + chunks.below(500);
            stepped.sim.run(n);
            sleepy.sim.run(n);
            ASSERT_EQ(coreBytes(*stepped.core), coreBytes(*sleepy.core))
                << "cpuMult=" << cpuMult << " after cycle "
                << stepped.sim.now();
        }
        EXPECT_GT(stepped.core->prefetchIssued(), 0u) << cpuMult;
        // The comparison proves nothing unless the core slept.
        EXPECT_GT(sleepy.sim.cyclesSkipped(), 0u) << cpuMult;
    }
}

namespace {

/** Dirty lines resident in `llc`: evict every line of a copy. */
uint64_t
dirtyLines(const cache::Cache &llc, Addr fresh)
{
    cache::Cache copy = llc;
    uint64_t dirty = 0;
    for (Addr set = 0; set < copy.numSets(); ++set) {
        for (unsigned w = 0; w < copy.ways(); ++w) {
            const Addr line = fresh + set + Addr{w} * copy.numSets();
            dirty += copy.fill(line * kLineBytes, false).evictedDirty;
        }
    }
    return dirty;
}

} // namespace

TEST(CoreModel, StoreMergedIntoAPrefetchHintWritesBack)
{
    // Each line is stored to once, then a long compute gap lets
    // memory drain, so every stored line must end up written back or
    // dirty in the LLC. The small queue is often full when a store
    // finds the line's prefetch hint in flight, so the store merges
    // into the hint without upgrading it; the line must still fill
    // dirty when the controller serves the hint.
    constexpr Addr kLines = 2000;
    const std::string path =
        ::testing::TempDir() + "memsec-store-merge.trace";
    for (const unsigned gap : {10u, 40u}) {
        {
            std::ofstream out(path);
            for (Addr line = 0; line < kLines; ++line)
                out << gap << " W " << std::hex << line * kLineBytes
                    << std::dec << "\n";
            out << "4000000000 W " << std::hex << kLines * kLineBytes
                << "\n";
        }
        for (const unsigned queue : {2u, 4u}) {
            WorkloadProfile p;
            p.name = "store-merge";
            p.tracePath = path;
            p.mshrs = 2;
            CoreModel::Params cp;
            cp.prefetchEnabled = true;
            cp.llcBytes = 16 * 1024;
            Rig rig(p, cp, nullptr, queue);
            rig.sim.run(400000);

            StatGroup g;
            rig.core->registerStats(g);
            const std::string point = "gap=" + std::to_string(gap) +
                                      " queue=" + std::to_string(queue);
            EXPECT_EQ(g.lookup("stores"), static_cast<double>(kLines + 1))
                << point;
            EXPECT_GT(rig.core->prefetchUseful(), 100u) << point;
            const uint64_t dirty = dirtyLines(rig.core->llc(), 1u << 30);
            EXPECT_EQ(g.lookup("writebacks") + static_cast<double>(dirty),
                      g.lookup("stores"))
                << point;
        }
    }
}
