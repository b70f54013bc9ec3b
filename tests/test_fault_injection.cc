/**
 * @file
 * The auditors must catch what they claim to catch. Every fault kind
 * the injector supports is aimed at a specific safety net — a
 * TimingChecker rule class, the noninterference comparison, the
 * recoverable-error channel, the trace parser, the livelock watchdog
 * — and these tests prove the net actually triggers.
 *
 * The command-stream tests drive a DramSystem with sequences that are
 * LEGAL on the fast path; only the injector's mutation of the audit
 * stream makes the checker see an illegal history.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "analysis/noninterference_certifier.hh"
#include "core/noninterference.hh"
#include "cpu/core_model.hh"
#include "cpu/trace_file.hh"
#include "dram/dram_system.hh"
#include "fault/fault_injector.hh"
#include "harness/experiment.hh"
#include "sched/scheduler.hh"
#include "sim/simulator.hh"
#include "util/sim_error.hh"

using namespace memsec;
using namespace memsec::dram;
using namespace memsec::fault;

namespace {

const TimingParams tp = TimingParams::ddr3_1600_4gb();

Geometry
smallGeo()
{
    Geometry g;
    g.ranksPerChannel = 2;
    g.banksPerRank = 8;
    return g;
}

Command
act(unsigned rank, unsigned bank, unsigned row)
{
    return Command{CmdType::Act, rank, bank, row, 0, false};
}

Command
cmd(CmdType t, unsigned rank, unsigned bank, unsigned row = 0)
{
    return Command{t, rank, bank, row, 0, false};
}

/** DramSystem + injector wired the way the harness does it. */
struct Rig
{
    explicit Rig(const FaultSpec &spec)
        : injector(spec), dram(tp, smallGeo())
    {
        dram.attachFaultInjector(&injector);
    }

    bool
    sawRule(const std::string &rule) const
    {
        return dram.checker().violationsByRule().count(rule) > 0;
    }

    std::string
    rulesSeen() const
    {
        std::string out;
        for (const auto &kv : dram.checker().violationsByRule())
            out += kv.first + " ";
        return out;
    }

    FaultInjector injector;
    DramSystem dram;
};

FaultSpec
spec(FaultKind kind)
{
    FaultSpec s;
    s.kind = kind;
    return s;
}

} // namespace

// ---------------------------------------------------------------------
// Command-stream mutations vs the TimingChecker rule classes.
// ---------------------------------------------------------------------

TEST(CommandFaults, DroppedActTriggersRowState)
{
    Rig rig(spec(FaultKind::CmdDrop));
    rig.dram.issue(act(0, 0, 5), 0); // vanishes from the audit stream
    rig.dram.issue(cmd(CmdType::Rd, 0, 0, 5), tp.rcd);
    EXPECT_TRUE(rig.sawRule("row-state")) << rig.rulesSeen();
    EXPECT_EQ(rig.injector.injected(), 1u);
}

TEST(CommandFaults, DelayedActTriggersCmdBus)
{
    FaultSpec s = spec(FaultKind::CmdDelay);
    s.magnitude = tp.rcd; // ACT@0 audited at 11, colliding with the CAS
    Rig rig(s);
    rig.dram.issue(act(0, 0, 5), 0);
    rig.dram.issue(cmd(CmdType::Rd, 0, 0, 5), tp.rcd);
    EXPECT_TRUE(rig.sawRule("cmd-bus")) << rig.rulesSeen();
}

TEST(CommandFaults, DuplicatedCasTriggersTccdAndDataBus)
{
    FaultSpec s = spec(FaultKind::CmdDuplicate);
    s.magnitude = 1; // ghost copy one cycle later
    Rig rig(s);
    rig.dram.issue(act(0, 0, 5), 0);
    rig.dram.issue(cmd(CmdType::Rd, 0, 0, 5), tp.rcd);
    EXPECT_TRUE(rig.sawRule("tCCD")) << rig.rulesSeen();
    EXPECT_TRUE(rig.sawRule("data-bus")) << rig.rulesSeen();
}

TEST(CommandFaults, RetargetedCasTriggersRowState)
{
    Rig rig(spec(FaultKind::CmdRetarget));
    rig.dram.issue(act(0, 0, 5), 0);
    // Audited at bank 1, whose row was never opened.
    rig.dram.issue(cmd(CmdType::Rd, 0, 0, 5), tp.rcd);
    EXPECT_TRUE(rig.sawRule("row-state")) << rig.rulesSeen();
}

TEST(CommandFaults, SpuriousPdEnterTriggersPowerDown)
{
    Rig rig(spec(FaultKind::CmdSpurious));
    rig.dram.issue(act(0, 0, 5), 0); // ghost PDE lands with the row open
    EXPECT_TRUE(rig.sawRule("power-down")) << rig.rulesSeen();
}

TEST(CommandFaults, SpuriousPdCycleTriggersTckeAndTxp)
{
    FaultSpec s = spec(FaultKind::CmdSpurious);
    s.param = "pde-pdx"; // PDE at t+1, PDX at t+2: residency violated
    s.windowHi = 1;      // only the first ACT grows the ghost pair
    Rig rig(s);
    rig.dram.issue(act(0, 0, 5), 0);
    rig.dram.issue(cmd(CmdType::Rd, 0, 0, 5), tp.rcd);
    EXPECT_TRUE(rig.sawRule("tCKE")) << rig.rulesSeen();
    // The CAS at 11 lands before the ghost PDX's tXP horizon (2+10).
    EXPECT_TRUE(rig.sawRule("tXP")) << rig.rulesSeen();
}

// ---------------------------------------------------------------------
// Timing-parameter drift: real-legal streams violate the true timing.
// ---------------------------------------------------------------------

TEST(TimingDrift, FawDriftTriggersTfaw)
{
    FaultSpec s = spec(FaultKind::TimingDrift);
    s.param = "faw";
    s.scale = 3.0; // device tFAW drifted 24 -> 72
    Rig rig(s);
    // Five ACTs, nominal-legal: tRRD spacing, fifth at exactly tFAW.
    for (unsigned b = 0; b < 4; ++b)
        rig.dram.issue(act(0, b, 1), b * tp.rrd);
    rig.dram.issue(act(0, 4, 1), tp.faw);
    EXPECT_TRUE(rig.sawRule("tFAW")) << rig.rulesSeen();
    EXPECT_EQ(rig.dram.illegalIssues(), 0u) << "stream must be "
                                               "nominal-legal";
}

TEST(TimingDrift, RrdDriftTriggersTrrd)
{
    FaultSpec s = spec(FaultKind::TimingDrift);
    s.param = "rrd";
    s.scale = 3.0; // 5 -> 15
    Rig rig(s);
    rig.dram.issue(act(0, 0, 1), 0);
    rig.dram.issue(act(0, 1, 1), tp.rrd);
    EXPECT_TRUE(rig.sawRule("tRRD")) << rig.rulesSeen();
}

TEST(TimingDrift, BurstDriftTriggersDataBus)
{
    FaultSpec s = spec(FaultKind::TimingDrift);
    s.param = "burst";
    s.scale = 2.0; // device bursts last 8 cycles, not 4
    Rig rig(s);
    rig.dram.issue(act(0, 0, 1), 0);
    rig.dram.issue(act(0, 1, 1), tp.rrd);
    rig.dram.issue(cmd(CmdType::Rd, 0, 0, 1), tp.rcd);
    rig.dram.issue(cmd(CmdType::Rd, 0, 1, 1), tp.rcd + tp.ccd);
    EXPECT_TRUE(rig.sawRule("data-bus")) << rig.rulesSeen();
}

// ---------------------------------------------------------------------
// Refresh faults.
// ---------------------------------------------------------------------

TEST(RefreshFaults, StormTriggersTrfc)
{
    Rig rig(spec(FaultKind::RefreshStorm));
    rig.dram.issue(cmd(CmdType::Ref, 0, 0), 0); // audited twice
    EXPECT_TRUE(rig.sawRule("tRFC")) << rig.rulesSeen();
}

TEST(RefreshFaults, SuppressionTriggersRetentionRule)
{
    Rig rig(spec(FaultKind::RefreshSuppress));
    rig.dram.checker().expectRefresh(tp.refi);
    rig.dram.issue(cmd(CmdType::Ref, 0, 0), 0); // never reaches the audit
    const Cycle late = 2 * tp.refi + 20;
    rig.dram.issue(act(0, 0, 1), late);
    EXPECT_TRUE(rig.sawRule("refresh")) << rig.rulesSeen();
}

// ---------------------------------------------------------------------
// Violation accounting: cap + totals.
// ---------------------------------------------------------------------

TEST(ViolationAccounting, CapKeepsFirstRecordsButCountsAll)
{
    TimingChecker ck(tp, 2, 8);
    ck.setStrict(false);
    ck.setViolationCap(4);
    // Ten command-bus collisions at the same cycle.
    ck.observe(act(0, 0, 1), 10);
    for (int i = 0; i < 10; ++i)
        ck.observe(act(0, 1, 1), 10);
    EXPECT_EQ(ck.violations().size(), 4u);
    EXPECT_GE(ck.violationCount(), 10u);
    EXPECT_GE(ck.violationsByRule().at("cmd-bus"), 10u);
    // The kept records are the earliest ones.
    EXPECT_EQ(ck.violations().front().cycle, 10u);
}

// ---------------------------------------------------------------------
// Queue overflow: recoverable, recorded, counted.
// ---------------------------------------------------------------------

TEST(QueueOverflow, GhostFloodIsRecordedNotFatal)
{
    Config c = harness::defaultConfig();
    c.merge(harness::schemeConfig("fs_rp"));
    c.set("cores", 2);
    c.set("sim.warmup", 0);
    c.set("sim.measure", 4000);
    c.set("workload", "mcf,mcf");
    c.set("fault.kind", "queue-overflow");
    c.set("fault.rate", 1.0);
    const harness::ExperimentResult r = harness::runExperiment(c);
    ASSERT_FALSE(r.simErrors.empty());
    bool sawOverflow = false;
    for (const auto &e : r.simErrors)
        sawOverflow |= e.category == "queue-overflow";
    EXPECT_TRUE(sawOverflow);
    EXPECT_GT(r.faultsInjected, 0u);
}

// ---------------------------------------------------------------------
// Scheduler slot skew: surfaces as noninterference divergence.
// ---------------------------------------------------------------------

namespace {

core::VictimTimeline
skewedVictimRun(const std::string &corunner)
{
    Config c = harness::defaultConfig();
    c.merge(harness::schemeConfig("fs_rp"));
    c.set("workload", "mcf," + corunner + "," + corunner + "," +
                          corunner + "," + corunner + "," + corunner +
                          "," + corunner + "," + corunner);
    c.set("cores", 8);
    c.set("sim.warmup", 0);
    c.set("sim.measure", 40000);
    c.set("audit.core", 0);
    c.set("audit.progress_interval", 1000);
    c.set("fault.kind", "slot-skew");
    c.set("fault.rate", 0.6);
    c.set("fault.magnitude", 2);
    c.set("fault.window", "5000:15000");
    return harness::runExperiment(c).timelines.at(0);
}

} // namespace

TEST(SlotSkew, InjectedSkewBreaksNoninterference)
{
    // The same fs_rp configuration passes the audit when healthy (see
    // test_integration_leakage); with skew injected into real ops the
    // victim's timeline must depend on its co-runners.
    const auto quiet = skewedVictimRun("idle");
    const auto noisy = skewedVictimRun("hog");
    ASSERT_FALSE(quiet.service.empty());
    const auto audit = core::compareTimelines(quiet, noisy);
    EXPECT_FALSE(audit.identical)
        << "slot-skew injection went undetected by the audit";
}

namespace {

/** fs_rp IPC sum on mcf over 40k cycles, optionally slot-skewed. */
double
fsRpIpcSum(Cycle skewMagnitude)
{
    Config c = harness::defaultConfig();
    c.merge(harness::schemeConfig("fs_rp"));
    c.set("workload", "mcf");
    c.set("sim.measure", 40000);
    if (skewMagnitude > 0) {
        c.set("fault.kind", "slot-skew");
        c.set("fault.rate", 0.5);
        c.set("fault.magnitude", skewMagnitude);
    }
    double sum = 0;
    for (double v : harness::runExperiment(c).ipc)
        sum += v;
    return sum;
}

} // namespace

TEST(SlotSkew, SkewedRequestsStillComplete)
{
    // A skewed command can land on another op's command cycle or
    // behind an op planned after it. It must then issue late, not
    // never: a lost command strands its request, and the core waiting
    // on it stalls for the rest of the run.
    const double healthy = fsRpIpcSum(0);
    ASSERT_GT(healthy, 0.0);
    for (Cycle magnitude : {Cycle{1}, Cycle{20}}) {
        EXPECT_GE(fsRpIpcSum(magnitude), 0.9 * healthy)
            << "slot-skew magnitude " << magnitude;
    }
}

// ---------------------------------------------------------------------
// Certifier refusal: domain-coupling faults must cost the scheduler
// its noninterference certificate, with a concrete witness.
// ---------------------------------------------------------------------

namespace {

analysis::CertifyResult
certifyUnderFault(FaultKind kind, double rate)
{
    analysis::CertifierConfig cfg =
        analysis::paperCertPoints()[0].cfg;
    cfg.fault.kind = kind;
    cfg.fault.rate = rate;
    cfg.fault.magnitude = 2;
    return analysis::NoninterferenceCertifier(cfg).certify();
}

} // namespace

TEST(CertifierRefusal, SlotSkewRefusesCertificate)
{
    // rate < 1 so the PRNG draw count (and thus the skew pattern)
    // depends on how many real ops the co-runners add; a rate-1.0
    // skew would shift every run identically and prove nothing.
    const auto res = certifyUnderFault(FaultKind::SlotSkew, 0.5);
    ASSERT_FALSE(res.certified)
        << "slot-skew fault went uncaught: " << res.summary();
    ASSERT_TRUE(res.hasWitness);
    EXPECT_FALSE(res.witness.toString().empty());
}

TEST(CertifierRefusal, CrossCouplingRefusesCertificate)
{
    // couplingSkew() keys directly on foreign backlog, so it is dead
    // in the all-idle reference and live in every backlogged run:
    // the purest noninterference break the injector models.
    const auto res = certifyUnderFault(FaultKind::CrossCoupling, 1.0);
    ASSERT_FALSE(res.certified)
        << "cross-coupling fault went uncaught: " << res.summary();
    ASSERT_TRUE(res.hasWitness);
    // One backlogged co-runner is already distinguishable.
    EXPECT_GE(res.witness.assignment, 1u);
}

TEST(CertifierRefusal, HealthyPointStillCertifies)
{
    // Control: the same design point with no fault armed keeps its
    // certificate — refusal above is the fault's doing, not noise.
    const auto res = certifyUnderFault(FaultKind::None, 1.0);
    EXPECT_TRUE(res.certified) << res.summary();
}

// ---------------------------------------------------------------------
// Trace corruption: the parser must reject, with line context.
// ---------------------------------------------------------------------

TEST(TraceCorruption, CorruptedTraceIsRejectedWithLineContext)
{
    std::vector<cpu::TraceRecord> records;
    for (uint32_t i = 0; i < 50; ++i)
        records.push_back({i % 7, i % 3 == 0, 0x1000ull + 64 * i});
    const std::string clean = cpu::formatTrace(records);

    // Clean text round-trips.
    std::vector<cpu::TraceRecord> out;
    cpu::TraceParseError err;
    ASSERT_TRUE(cpu::tryParseTrace(clean, out, err));
    ASSERT_EQ(out.size(), records.size());

    FaultSpec s = spec(FaultKind::TraceCorrupt);
    s.rate = 0.2;
    FaultInjector injector(s);
    const std::string dirty = injector.corruptTraceText(clean);
    ASSERT_GT(injector.injected(), 0u);

    out.clear();
    EXPECT_FALSE(cpu::tryParseTrace(dirty, out, err));
    EXPECT_GT(err.line, 0);
    EXPECT_FALSE(err.message.empty());
    EXPECT_NE(err.toString().find("trace line"), std::string::npos);
}

// ---------------------------------------------------------------------
// Crash snapshot: panic dumps the last-K-commands ring.
// ---------------------------------------------------------------------

TEST(CrashSnapshot, PanicDumpsRecentCommands)
{
    DramSystem dram(tp, smallGeo());
    dram.issue(act(0, 0, 5), 0);
    testing::internal::CaptureStderr();
    // Second command in the same cycle: command bus is busy -> panic.
    EXPECT_THROW(dram.issue(act(0, 1, 6), 0), std::logic_error);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("issued command"), std::string::npos) << err;
    // Both the victim and the killer command appear in the dump.
    EXPECT_NE(err.find("@0 ACT"), std::string::npos) << err;
    EXPECT_EQ(dram.commandLog().totalRecorded(), 2u);
}

TEST(CrashSnapshot, RingKeepsOnlyLastK)
{
    CommandLog log(4);
    for (unsigned i = 0; i < 10; ++i)
        log.record(act(0, i % 8, i), i * 100);
    EXPECT_EQ(log.size(), 4u);
    EXPECT_EQ(log.totalRecorded(), 10u);
    const std::string snap = log.snapshot();
    EXPECT_NE(snap.find("@600"), std::string::npos) << snap;
    EXPECT_NE(snap.find("@900"), std::string::npos) << snap;
    EXPECT_EQ(snap.find("@500"), std::string::npos) << snap;
}

// ---------------------------------------------------------------------
// Livelock watchdog.
// ---------------------------------------------------------------------

// The probe returns the first cycle after the latest progress.

TEST(Watchdog, StalledProgressCounterIsFatal)
{
    EXPECT_EXIT(
        {
            Simulator sim;
            sim.setWatchdog(10, [] { return Cycle{0}; });
            sim.run(100);
        },
        ::testing::ExitedWithCode(1), "livelock");
}

TEST(Watchdog, AdvancingProgressCounterIsQuiet)
{
    Simulator sim;
    // Progress on every cycle so far.
    sim.setWatchdog(10, [&sim] { return sim.now(); });
    sim.run(100); // no exit, no throw
    EXPECT_EQ(sim.now(), 100u);
}

namespace {

/** A controller policy that never serves anything: a wedged one. */
class WedgedScheduler : public sched::Scheduler
{
  public:
    using Scheduler::Scheduler;
    void tick(Cycle now) override { (void)now; }
    Cycle nextWakeCycle(Cycle now) const override
    {
        (void)now;
        return kNoCycle;
    }
    std::string name() const override { return "wedged"; }
};

/** One core in front of a wedged controller, watched like a real
 *  system: a core retires its first record's long gap, then stalls
 *  on the load forever. */
struct WedgedRig
{
    explicit WedgedRig(bool fastForward)
        : map(dram::Geometry{}, mem::Partition::None,
              mem::Interleave::ClosePage, 1)
    {
        mem::MemoryController::Params p;
        p.numDomains = 1;
        mc = std::make_unique<mem::MemoryController>("mc", p, map);
        mc->setScheduler(std::make_unique<WedgedScheduler>(*mc));
        cpu::WorkloadProfile prof;
        prof.name = "sparse";
        prof.memRatio = 0.0005; // gaps of ~2000 instructions
        prof.storeFraction = 0.0;
        prof.footprintLines = 1 << 22;
        cpu::CoreModel::Params cp;
        cp.retireWidth = 3;
        cp.progressInterval = 7;
        core = std::make_unique<cpu::CoreModel>("c0", 0, cp, prof, 42,
                                                *mc);
        sim.setFastForward(fastForward);
        sim.add(core.get());
        sim.add(mc.get());
    }

    void
    arm(Cycle window)
    {
        sim.setWatchdog(window, [this] {
            return std::max(core->progressCycle(),
                            mc->dram().progressCycle());
        });
    }

    mem::AddressMap map;
    std::unique_ptr<mem::MemoryController> mc;
    std::unique_ptr<cpu::CoreModel> core;
    Simulator sim;
};

} // namespace

TEST(Watchdog, StallAfterLongGapFiresAtSameCycleInBothModes)
{
    // Where the core stops: its last retiring cycle, from an unwatched
    // naive run that outlasts the gap.
    Cycle stall = 0;
    {
        WedgedRig rig(false);
        rig.sim.run(5000);
        stall = rig.core->progressCycle();
        EXPECT_EQ(rig.mc->dram().progressCycle(), 0u);
    }
    // The stall starts after a gap several windows long, which a
    // fast-forward core sleeps through in closed form.
    const Cycle window = 50;
    ASSERT_GT(stall, 3 * window);
    const std::string message =
        "no progress for 50 cycles \\(cycle " + std::to_string(stall) +
        "\\.\\." + std::to_string(stall + window) + "\\)";
    for (bool ff : {false, true}) {
        EXPECT_EXIT(
            {
                WedgedRig rig(ff);
                rig.arm(window);
                rig.sim.run(100000);
            },
            ::testing::ExitedWithCode(1), message)
            << (ff ? "fast-forward" : "naive");
    }
    // The fast-forward core really slept through the gap.
    WedgedRig rig(true);
    rig.sim.run(stall + window);
    EXPECT_LT(rig.sim.cyclesExecuted(), stall / 4);
}

// ---------------------------------------------------------------------
// RunReport semantics.
// ---------------------------------------------------------------------

TEST(RunReportTest, CapsStoredErrorsButCountsAll)
{
    RunReport report(3);
    for (Cycle t = 0; t < 10; ++t)
        report.record({t, "queue-overflow", "x"});
    report.record({99, "illegal-issue", "y"});
    EXPECT_EQ(report.total(), 11u);
    EXPECT_EQ(report.errors().size(), 3u);
    EXPECT_EQ(report.count("queue-overflow"), 10u);
    EXPECT_EQ(report.count("illegal-issue"), 1u);
    EXPECT_EQ(report.count("absent"), 0u);
    EXPECT_NE(report.summary().find("queue-overflow: 10"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Disabled injection is invisible.
// ---------------------------------------------------------------------

TEST(Disabled, NoFaultKindLeavesRunPristine)
{
    Config c = harness::defaultConfig();
    c.merge(harness::schemeConfig("fs_rp"));
    c.set("cores", 2);
    c.set("sim.warmup", 0);
    c.set("sim.measure", 4000);
    c.set("workload", "mcf,mcf");
    const harness::ExperimentResult r = harness::runExperiment(c);
    EXPECT_EQ(r.faultsInjected, 0u);
    EXPECT_EQ(r.timingViolations, 0u);
    EXPECT_EQ(r.illegalIssues, 0u);
    EXPECT_TRUE(r.simErrors.empty());
    EXPECT_TRUE(r.violationRules.empty());
}
