#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "mem/request.hh"
#include "sim/simulator.hh"
#include "util/serialize.hh"

using namespace memsec;

namespace {

class Probe : public Component
{
  public:
    explicit Probe(std::string name, std::vector<int> *log, int id)
        : Component(std::move(name)), log_(log), id_(id)
    {
    }

    void
    tick(Cycle now) override
    {
        lastTick = now;
        ++ticks;
        if (log_)
            log_->push_back(id_);
    }

    Cycle lastTick = 0;
    uint64_t ticks = 0;

  private:
    std::vector<int> *log_;
    int id_;
};

/**
 * A component with a configurable wake hint: wakes at multiples of
 * `stride` (kNoCycle when stride is 0, i.e. purely reactive), and
 * records every fastForward() span it receives.
 */
class IdleProbe : public Component
{
  public:
    explicit IdleProbe(Cycle stride)
        : Component("idle"), stride_(stride)
    {
    }

    void
    tick(Cycle now) override
    {
        lastTick = now;
        ++ticks;
    }

    Cycle
    nextWakeCycle(Cycle now) const override
    {
        if (stride_ == 0)
            return kNoCycle;
        return (now / stride_ + 1) * stride_;
    }

    void
    fastForward(Cycle from, Cycle to) override
    {
        spans.push_back({from, to});
        ffCycles += to - from;
    }

    Cycle lastTick = 0;
    uint64_t ticks = 0;
    uint64_t ffCycles = 0;
    std::vector<std::pair<Cycle, Cycle>> spans;

  private:
    Cycle stride_;
};

using Span = std::pair<Cycle, Cycle>;

/**
 * Counts every call the kernel makes on it. It has work at cycle
 * `due` (consumed by the tick that does it), or every cycle when
 * `busy`; `onTick` runs inside its tick, so a test can poke another
 * component mid-cycle or observe it. Every tick and catch-up must
 * start at the first cycle not yet accounted.
 */
class Counter : public Component
{
  public:
    explicit Counter(std::string name) : Component(std::move(name)) {}

    void
    tick(Cycle now) override
    {
        EXPECT_EQ(now, accounted) << name() << ": tick leaves a gap";
        accounted = now + 1;
        ticks.push_back(now);
        if (due <= now)
            due = kNoCycle;
        if (onTick)
            onTick(now);
    }

    Cycle
    nextWakeCycle(Cycle now) const override
    {
        ++wakeQueries;
        return busy ? now + 1 : std::max(due, now + 1);
    }

    void
    fastForward(Cycle from, Cycle to) override
    {
        EXPECT_EQ(from, accounted) << name() << ": span leaves a gap";
        EXPECT_LT(from, to) << name();
        accounted = to;
        spans.push_back({from, to});
    }

    bool busy = false;
    Cycle due = kNoCycle;
    std::function<void(Cycle)> onTick;

    Cycle accounted = 0; ///< first cycle not yet ticked or caught up
    std::vector<Cycle> ticks;
    std::vector<Span> spans;
    mutable uint64_t wakeQueries = 0;
};

} // namespace

TEST(Simulator, RunAdvancesExactCycles)
{
    Simulator sim;
    Probe p("p", nullptr, 0);
    sim.add(&p);
    sim.run(10);
    EXPECT_EQ(sim.now(), 10u);
    EXPECT_EQ(p.ticks, 10u);
    EXPECT_EQ(p.lastTick, 9u);
    sim.run(5);
    EXPECT_EQ(sim.now(), 15u);
    EXPECT_EQ(p.ticks, 15u);
}

TEST(Simulator, ComponentsTickInRegistrationOrder)
{
    Simulator sim;
    std::vector<int> log;
    Probe a("a", &log, 1);
    Probe b("b", &log, 2);
    sim.add(&a);
    sim.add(&b);
    sim.run(2);
    ASSERT_EQ(log.size(), 4u);
    EXPECT_EQ(log[0], 1);
    EXPECT_EQ(log[1], 2);
    EXPECT_EQ(log[2], 1);
    EXPECT_EQ(log[3], 2);
}

TEST(Simulator, AddNullPanics)
{
    Simulator sim;
    EXPECT_THROW(sim.add(nullptr), std::logic_error);
}

TEST(Simulator, RunZeroCyclesIsNoOp)
{
    Simulator sim;
    Probe p("p", nullptr, 0);
    sim.add(&p);
    sim.run(0);
    EXPECT_EQ(sim.now(), 0u);
    EXPECT_EQ(p.ticks, 0u);
    EXPECT_EQ(sim.cyclesExecuted(), 0u);
    EXPECT_EQ(sim.cyclesSkipped(), 0u);
}

// -- fast-forward kernel mechanics ---------------------------------

TEST(Simulator, FastForwardSkipsIdleSpans)
{
    Simulator sim;
    IdleProbe p(10); // interesting only at multiples of 10
    sim.add(&p);
    sim.run(100);
    EXPECT_EQ(sim.now(), 100u);
    // Ticked at 0, 10, ..., 90; everything between was skipped.
    EXPECT_EQ(p.ticks, 10u);
    EXPECT_EQ(p.lastTick, 90u);
    EXPECT_EQ(sim.cyclesExecuted(), 10u);
    EXPECT_EQ(sim.cyclesSkipped(), 90u);
    EXPECT_EQ(sim.fastForwardJumps(), 10u);
    EXPECT_EQ(p.ffCycles, 90u);
    // Spans cover (tick+1, next wake) exactly, in order.
    ASSERT_EQ(p.spans.size(), 10u);
    EXPECT_EQ(p.spans.front(), (std::pair<Cycle, Cycle>{1, 10}));
    EXPECT_EQ(p.spans.back(), (std::pair<Cycle, Cycle>{91, 100}));
}

TEST(Simulator, NaiveModeNeverSkips)
{
    Simulator sim;
    sim.setFastForward(false);
    EXPECT_FALSE(sim.fastForwardEnabled());
    IdleProbe p(10);
    sim.add(&p);
    sim.run(100);
    EXPECT_EQ(p.ticks, 100u);
    EXPECT_EQ(sim.cyclesExecuted(), 100u);
    EXPECT_EQ(sim.cyclesSkipped(), 0u);
    EXPECT_EQ(sim.fastForwardJumps(), 0u);
    EXPECT_TRUE(p.spans.empty());
}

TEST(Simulator, ReactiveComponentClampsToRunEnd)
{
    Simulator sim;
    IdleProbe p(0); // kNoCycle: no self-scheduled work
    sim.add(&p);
    sim.run(50);
    EXPECT_EQ(sim.now(), 50u);
    EXPECT_EQ(p.ticks, 1u);
    EXPECT_EQ(sim.cyclesExecuted(), 1u);
    EXPECT_EQ(sim.cyclesSkipped(), 49u);
    ASSERT_EQ(p.spans.size(), 1u);
    EXPECT_EQ(p.spans[0], (std::pair<Cycle, Cycle>{1, 50}));
}

TEST(Simulator, EarliestHintAcrossComponentsWins)
{
    Simulator sim;
    IdleProbe slow(100);
    IdleProbe fast(7);
    sim.add(&slow);
    sim.add(&fast);
    sim.run(100);
    // The 7-stride component's wakes dominate the executed cycles:
    // 0, 7, 14, ..., 98 (15 wakes). The 100-stride component is due
    // only at cycle 0; it sleeps through every other cycle instead of
    // ticking alongside, and is caught up when the run returns.
    EXPECT_EQ(fast.ticks, 15u);
    EXPECT_EQ(slow.ticks, 1u);
    // Tick or fast-forward, both components account all 100 cycles.
    EXPECT_EQ(fast.ticks + fast.ffCycles, 100u);
    EXPECT_EQ(slow.ticks + slow.ffCycles, 100u);
}

// -- lazy kernel contract ------------------------------------------

TEST(Simulator, SleeperIsNotCalledWhileOthersExecute)
{
    Simulator sim;
    Counter busy("busy");
    Counter sleeper("sleeper");
    busy.busy = true;
    sim.add(&busy);
    sim.add(&sleeper);
    // After its entry tick at cycle 0 (queried once), the sleeper
    // must see no hint query and no catch-up while the busy component
    // executes every cycle.
    busy.onTick = [&](Cycle now) {
        if (now == 0)
            return;
        EXPECT_EQ(sleeper.wakeQueries, 1u) << "cycle " << now;
        EXPECT_TRUE(sleeper.spans.empty()) << "cycle " << now;
    };
    sim.run(50);
    EXPECT_EQ(sim.cyclesExecuted(), 50u);
    EXPECT_EQ(busy.ticks.size(), 50u);
    EXPECT_EQ(sleeper.ticks, std::vector<Cycle>{0});
    EXPECT_EQ(sleeper.wakeQueries, 1u);
}

TEST(Simulator, WakingSleeperGetsOneCatchUpSpan)
{
    Simulator sim;
    Counter busy("busy");
    Counter sleeper("sleeper");
    busy.busy = true;
    sleeper.due = 30;
    sim.add(&busy);
    sim.add(&sleeper);
    sleeper.onTick = [&](Cycle now) {
        if (now == 30) {
            EXPECT_EQ(sleeper.spans, (std::vector<Span>{{1, 30}}));
        }
    };
    sim.run(40);
    // One fastForward() covers exactly the 29 skipped cycles, and it
    // arrives before the tick it precedes.
    EXPECT_EQ(sleeper.ticks, (std::vector<Cycle>{0, 30}));
    EXPECT_EQ(sleeper.spans, (std::vector<Span>{{1, 30}, {31, 40}}));
    EXPECT_EQ(sleeper.wakeQueries, 2u);
}

TEST(Simulator, PokeFromEarlierComponentTicksTargetSameCycle)
{
    Simulator sim;
    Counter early("early");
    Counter late("late");
    early.due = 10;
    sim.add(&early);
    sim.add(&late);
    early.onTick = [&](Cycle now) {
        if (now != 10)
            return;
        late.poke(); // announce, then mutate
        late.due = now;
    };
    sim.run(40);
    EXPECT_EQ(late.ticks, (std::vector<Cycle>{0, 10}));
    // Caught up to the poke point, then ticked in the same cycle.
    ASSERT_FALSE(late.spans.empty());
    EXPECT_EQ(late.spans.front(), (Span{1, 10}));
    // Cycles 0 and 10 executed; both gaps were jumped.
    EXPECT_EQ(sim.cyclesExecuted(), 2u);
}

TEST(Simulator, PokeFromLaterComponentTicksTargetNextCycle)
{
    Simulator sim;
    Counter early("early");
    Counter late("late");
    late.due = 20;
    sim.add(&early);
    sim.add(&late);
    late.onTick = [&](Cycle now) {
        if (now != 20)
            return;
        early.poke();
        early.due = now;
    };
    sim.run(40);
    // Its turn at cycle 20 had already passed as a no-op, so the poke
    // caught it up through cycle 20 and the new work runs at 21.
    EXPECT_EQ(early.ticks, (std::vector<Cycle>{0, 21}));
    ASSERT_FALSE(early.spans.empty());
    EXPECT_EQ(early.spans.front(), (Span{1, 21}));
    EXPECT_EQ(sim.cyclesExecuted(), 3u);
}

TEST(Simulator, PokeOfTickingComponentOrIdleKernelIsNoOp)
{
    Simulator sim;
    Counter self("self");
    Counter other("other");
    sim.add(&self);
    sim.add(&other);
    self.due = 5;
    self.onTick = [&](Cycle) { self.poke(); };
    other.poke(); // no run in progress
    sim.run(10);
    EXPECT_EQ(self.ticks, (std::vector<Cycle>{0, 5}));
    EXPECT_EQ(other.ticks, std::vector<Cycle>{0});
    EXPECT_EQ(self.wakeQueries, 2u);
}

TEST(Simulator, RunReturnsWithEveryComponentCaughtUp)
{
    Simulator sim;
    Counter busy("busy");
    Counter stride("stride");
    Counter reactive("reactive");
    busy.busy = true;
    sim.add(&stride);
    sim.add(&reactive);
    sim.add(&busy);
    // The stride component works every 7 cycles and pokes the
    // reactive one on every other wake; the busy one stops at 60.
    stride.due = 7;
    stride.onTick = [&](Cycle now) {
        stride.due = now + 7;
        if (now % 14 == 0) {
            reactive.poke();
            reactive.due = now;
        }
    };
    busy.onTick = [&](Cycle now) {
        if (now == 60)
            busy.busy = false;
    };
    for (Cycle n : {0u, 1u, 13u, 50u, 100u, 3u}) {
        sim.run(n);
        for (const Counter *c : {&busy, &stride, &reactive})
            EXPECT_EQ(c->accounted, sim.now()) << c->name();
    }
    EXPECT_EQ(sim.now(), 167u);
    EXPECT_GT(sim.cyclesSkipped(), 0u);
    EXPECT_GT(reactive.ticks.size(), 2u);
}

// -- watchdog ------------------------------------------------------

// A watchdog probe answers "the first cycle after the latest
// progress"; a constant 0 is a run that never progressed.

TEST(Simulator, WatchdogDisarmSurvivesStall)
{
    Simulator sim;
    Probe p("p", nullptr, 0);
    sim.add(&p);
    const Cycle progress = 0;
    sim.setWatchdog(10, [&] { return progress; });
    // Disarm before the stall window elapses; the stuck probe must
    // no longer kill the run.
    sim.setWatchdog(0, nullptr);
    sim.run(100);
    EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, WatchdogRearmAfterDisarm)
{
    Simulator sim;
    Probe p("p", nullptr, 0);
    sim.add(&p);
    sim.setWatchdog(0, nullptr); // disarm while already disarmed: ok
    const Cycle progress = 0;
    sim.run(30); // stall-free: nothing armed
    sim.setWatchdog(20, [&] { return progress; });
    EXPECT_EXIT(sim.run(1000), ::testing::ExitedWithCode(1),
                "livelock");
}

TEST(Simulator, WatchdogArmedWithoutProbePanics)
{
    Simulator sim;
    EXPECT_THROW(sim.setWatchdog(5, nullptr), std::logic_error);
}

TEST(Simulator, WatchdogFiresAtSameCycleAcrossFastForwardJump)
{
    // A stalled run must die at the identical cycle whether the
    // kernel walked there or jumped there: the jump is capped at the
    // stall deadline and the landing cycle is re-checked.
    const auto stalledRun = [](bool fastForward) {
        Simulator sim;
        sim.setFastForward(fastForward);
        IdleProbe p(0); // wants to sleep forever
        sim.add(&p);
        const Cycle progress = 0;
        sim.setWatchdog(50, [&] { return progress; });
        sim.run(100000);
    };
    EXPECT_EXIT(stalledRun(false), ::testing::ExitedWithCode(1),
                "cycle 0\\.\\.50");
    EXPECT_EXIT(stalledRun(true), ::testing::ExitedWithCode(1),
                "cycle 0\\.\\.50");
}

TEST(Simulator, WatchdogProgressAllowsJumpBeyondWindow)
{
    Simulator sim;
    IdleProbe p(30);
    sim.add(&p);
    // Each tick is progress, so each wake resets the stall clock and
    // the run completes even though each idle gap approaches the
    // window.
    sim.setWatchdog(40, [&] { return p.ticks > 0 ? p.lastTick + 1 : 0; });
    sim.run(300);
    EXPECT_EQ(sim.now(), 300u);
    EXPECT_EQ(p.ticks, 10u);
}

/**
 * Progresses every cycle before `stallAt` and never after. Like a
 * core, it keeps its progress cycle out of its checkpoint: the
 * kernel's saved watchdog books carry it across a restore.
 */
class StallingProbe : public Component
{
  public:
    explicit StallingProbe(Cycle stallAt)
        : Component("stalling"), stallAt_(stallAt)
    {
    }

    void
    tick(Cycle now) override
    {
        if (now < stallAt_)
            progress = now + 1;
    }

    Cycle
    nextWakeCycle(Cycle now) const override
    {
        return now + 1 < stallAt_ ? now + 1 : kNoCycle;
    }

    Cycle progress = 0;

  private:
    Cycle stallAt_;
};

TEST(Simulator, WatchdogRestoredMidWindowFiresWhereUninterruptedDoes)
{
    // Progress stops after cycle 249, so the uninterrupted run dies
    // at 250 + 100. A run saved at 280, inside that window while the
    // books still say 200 (the last deadline), and restored into a
    // fresh kernel must die at the same cycle with the same message,
    // in both modes.
    const auto arm = [](Simulator &sim, StallingProbe &p) {
        sim.setWatchdog(100, [&p] { return p.progress; });
    };
    const auto uninterrupted = [&](bool fastForward) {
        Simulator sim;
        sim.setFastForward(fastForward);
        StallingProbe p(250);
        sim.add(&p);
        arm(sim, p);
        sim.run(100000);
    };
    const auto restored = [&](bool fastForward) {
        Serializer s;
        {
            Simulator sim;
            sim.setFastForward(fastForward);
            StallingProbe p(250);
            sim.add(&p);
            arm(sim, p);
            sim.run(280);
            sim.saveState(s);
        }
        Simulator sim;
        sim.setFastForward(fastForward);
        StallingProbe p(250);
        sim.add(&p);
        arm(sim, p);
        Deserializer d(s.data());
        sim.restoreState(d);
        EXPECT_EQ(sim.now(), 280u);
        sim.run(100000);
    };
    for (bool ff : {false, true}) {
        EXPECT_EXIT(uninterrupted(ff), ::testing::ExitedWithCode(1),
                    "no progress for 100 cycles \\(cycle 250\\.\\.350\\)");
        EXPECT_EXIT(restored(ff), ::testing::ExitedWithCode(1),
                    "no progress for 100 cycles \\(cycle 250\\.\\.350\\)");
    }
}

TEST(Request, TypeNames)
{
    using mem::ReqType;
    EXPECT_STREQ(mem::reqTypeName(ReqType::Read), "read");
    EXPECT_STREQ(mem::reqTypeName(ReqType::Write), "write");
    EXPECT_STREQ(mem::reqTypeName(ReqType::Prefetch), "prefetch");
    EXPECT_STREQ(mem::reqTypeName(ReqType::Dummy), "dummy");
}

TEST(Request, IsReadClassification)
{
    mem::MemRequest r;
    r.type = mem::ReqType::Read;
    EXPECT_TRUE(r.isRead());
    EXPECT_TRUE(r.isDemand());
    r.type = mem::ReqType::Prefetch;
    EXPECT_TRUE(r.isRead());
    EXPECT_FALSE(r.isDemand());
    r.type = mem::ReqType::Dummy;
    EXPECT_TRUE(r.isRead());
    r.type = mem::ReqType::Write;
    EXPECT_FALSE(r.isRead());
}

TEST(Request, ToStringContainsLocation)
{
    mem::MemRequest r;
    r.id = 7;
    r.domain = 3;
    r.addr = 0x1234;
    r.loc.rank = 2;
    r.loc.bank = 5;
    const std::string s = r.toString();
    EXPECT_NE(s.find("req7"), std::string::npos);
    EXPECT_NE(s.find("dom3"), std::string::npos);
    EXPECT_NE(s.find("r2"), std::string::npos);
    EXPECT_NE(s.find("b5"), std::string::npos);
}
