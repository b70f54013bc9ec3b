#include "harness/experiment.hh"

#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>

#include "cpu/core_model.hh"
#include "cpu/workload.hh"
#include "fault/fault_injector.hh"
#include "harness/campaign.hh"
#include "leakage/channel.hh"
#include "leakage/secret.hh"
#include "mem/address_map.hh"
#include "mem/memory_controller.hh"
#include "sched/frfcfs.hh"
#include "sched/fs.hh"
#include "sched/fs_reordered.hh"
#include "sched/tp.hh"
#include "sim/simulator.hh"
#include "util/logging.hh"
#include "util/serialize.hh"
#include "util/thread_pool.hh"

namespace memsec::harness {

using mem::AddressMap;
using mem::Interleave;
using mem::MemoryController;
using mem::Partition;

double
ExperimentResult::weightedIpc(const std::vector<double> &baseIpc) const
{
    panic_if(baseIpc.size() != ipc.size(),
             "baseline IPC vector size mismatch");
    double sum = 0.0;
    for (size_t i = 0; i < ipc.size(); ++i)
        sum += baseIpc[i] > 0.0 ? ipc[i] / baseIpc[i] : 0.0;
    return sum;
}

Config
defaultConfig()
{
    Config c;
    c.set("cores", 8);
    c.set("sched", "baseline");
    c.set("workload", "mcf");
    c.set("dram.channels", 1);
    c.set("dram.ranks", 8);
    c.set("dram.banks", 8);
    c.set("dram.rows", 32768);
    c.set("dram.cols", 128);
    c.set("mc.queue_capacity", 16);
    c.set("map.partition", "none");
    c.set("map.interleave", "close");
    c.set("core.rob", 64);
    c.set("core.retire_width", 4);
    c.set("core.cpu_mult", 4);
    c.set("core.llc_kb", 512);
    c.set("core.llc_ways", 8);
    c.set("core.llc_hit_latency", 10);
    c.set("sim.warmup", 20000);
    c.set("sim.measure", 200000);
    c.set("tp.turn", 60);
    c.set("audit.core", -1);
    c.set("audit.progress_interval", 10000);
    c.set("seed", 1);
    // Livelock watchdog window in memory cycles (0 disables). Large
    // enough that any live run — even an idle FS frame between
    // refresh epochs — makes progress well within it.
    c.set("sim.watchdog", 100000);
    // Idle-skip fast forward (byte-identical to the naive loop; see
    // tests/test_fastforward_diff.cc). Off = force the naive loop.
    c.set("sim.fastforward", true);
    // Fixed-capacity request pool for scheduler-internal operations
    // (dummies); heap fallback beyond this is a structured SimError,
    // never UB (tests/test_fixed_pool.cc).
    c.set("mc.request_pool", 64);
    // Open-loop arrival process ("none" keeps the closed-loop trace
    // generators). See traffic.* in docs/CONFIG.md for the per-domain
    // rate/burstiness keys layered on top of this switch.
    c.set("traffic.process", "none");
    // Channel shards stepped in parallel on the thread pool. Shards
    // share no mutable state, so any value produces byte-identical
    // digests (tests/test_shard_diff.cc); 1 = serial.
    c.set("sim.shards", 1);
    // Cycles each shard runs between barriers. Purely a scheduling
    // granularity: shards never interact, so the epoch length cannot
    // change observables, only synchronisation overhead.
    c.set("sim.shard_epoch", 8192);
    return c;
}

Config
schemeConfig(const std::string &scheme)
{
    Config c;
    c.set("scheme", scheme);
    auto fsRp = [&] {
        c.set("sched", "fs");
        c.set("fs.mode", "rank");
        c.set("map.partition", "rank");
    };
    if (scheme == "baseline") {
        c.set("sched", "baseline");
        c.set("map.partition", "none");
        c.set("map.interleave", "open");
    } else if (scheme == "baseline_prefetch") {
        c.set("sched", "baseline");
        c.set("map.partition", "none");
        c.set("map.interleave", "open");
        c.set("core.prefetch", true);
    } else if (scheme == "fs_rp") {
        fsRp();
    } else if (scheme == "fs_rp_prefetch") {
        fsRp();
        c.set("core.prefetch", true);
        c.set("fs.prefetch", true);
    } else if (scheme == "fs_rp_suppress") {
        fsRp();
        c.set("fs.suppress", true);
    } else if (scheme == "fs_rp_boost") {
        fsRp();
        c.set("fs.suppress", true);
        c.set("fs.boost", true);
    } else if (scheme == "fs_rp_powerdown") {
        fsRp();
        c.set("fs.suppress", true);
        c.set("fs.boost", true);
        c.set("fs.powerdown", true);
    } else if (scheme == "fs_bp") {
        c.set("sched", "fs");
        c.set("fs.mode", "bank");
        c.set("map.partition", "bank");
    } else if (scheme == "fs_reordered_bp") {
        c.set("sched", "fs_reordered");
        c.set("map.partition", "bank");
    } else if (scheme == "fs_np") {
        c.set("sched", "fs");
        c.set("fs.mode", "none");
        c.set("map.partition", "none");
    } else if (scheme == "fs_np_triple") {
        c.set("sched", "fs");
        c.set("fs.mode", "triple");
        c.set("map.partition", "none");
    } else if (scheme == "tp_bp") {
        c.set("sched", "tp");
        c.set("map.partition", "bank");
        c.set("map.interleave", "open");
        c.set("tp.turn", 60);
    } else if (scheme == "tp_np") {
        c.set("sched", "tp");
        c.set("map.partition", "none");
        c.set("map.interleave", "open");
        c.set("tp.turn", 172);
    } else if (scheme == "channel_part") {
        // Section 4.1: with at most one domain per channel nothing is
        // shared, so the non-secure scheduler is already leak-free.
        c.set("sched", "baseline");
        c.set("map.partition", "channel");
        c.set("map.interleave", "open");
    } else {
        fatal("unknown scheme '{}'", scheme);
    }
    return c;
}

std::vector<std::string>
allSchemes()
{
    return {"baseline",        "baseline_prefetch", "fs_rp",
            "fs_rp_prefetch",  "fs_rp_suppress",    "fs_rp_boost",
            "fs_rp_powerdown", "fs_bp",             "fs_reordered_bp",
            "fs_np",           "fs_np_triple",      "tp_bp",
            "tp_np",           "channel_part"};
}

namespace {

Partition
parsePartition(const std::string &s)
{
    if (s == "none")
        return Partition::None;
    if (s == "channel")
        return Partition::Channel;
    if (s == "rank")
        return Partition::Rank;
    if (s == "bank")
        return Partition::Bank;
    fatal("unknown partition '{}'", s);
}

Interleave
parseInterleave(const std::string &s)
{
    if (s == "open")
        return Interleave::OpenPage;
    if (s == "close")
        return Interleave::ClosePage;
    fatal("unknown interleave '{}'", s);
}

uint64_t
traceSeed(const std::string &profileName, unsigned coreIdx,
          uint64_t baseSeed)
{
    // Seed depends only on the core's own identity so a victim's
    // trace is bit-identical regardless of its co-runners.
    uint64_t h = baseSeed * 0x100000001B3ull;
    for (char ch : profileName)
        h = (h ^ static_cast<uint64_t>(ch)) * 0x100000001B3ull;
    return h ^ (0x9E3779B97F4A7C15ull * (coreIdx + 1));
}

} // namespace

/**
 * Everything one run owns, built in dependency order: the AddressMap
 * must outlive the controllers, the controllers their cores, and the
 * Simulators only hold raw pointers into both.
 *
 * Channel sharding (sim.shards): shard k owns controllers
 * {m : m % shards == k} plus the cores bound to them, each shard in
 * its own Simulator. Shards share no mutable state — a core only
 * talks to its own channel's controller, the AddressMap is immutable,
 * and fault injection/error reporting are per-controller when more
 * than one controller exists — so stepping the shard Simulators in
 * parallel between deterministic epoch barriers is byte-identical to
 * stepping one Simulator serially (tests/test_shard_diff.cc). With
 * shards == 1 everything lands in sims[0] in exactly the historical
 * registration order (cores ascending, then controllers ascending).
 */
struct ExperimentSystem::Impl
{
    Config cfg;
    unsigned cores = 0;
    std::string schedName;
    std::string workload;
    dram::TimingParams tp;
    dram::Geometry geo;
    bool geometryOverridden = false;
    std::unique_ptr<AddressMap> map;
    unsigned numMcs = 0;
    std::vector<std::unique_ptr<MemoryController>> mcs;
    std::unique_ptr<fault::FaultInjector> injector;
    RunReport report;
    /**
     * Per-controller fault plumbing, populated only when numMcs > 1:
     * a shared injector PRNG or error list would make outcomes depend
     * on the order controllers tick, which sharding must not.
     * Single-controller runs keep `injector`/`report` attached
     * directly, bit-identical to the historical wiring.
     */
    std::vector<std::unique_ptr<fault::FaultInjector>> mcInjectors;
    std::deque<RunReport> mcReports;
    int64_t auditCore = -1;
    std::vector<std::unique_ptr<cpu::CoreModel>> coreModels;
    std::vector<std::unique_ptr<Simulator>> sims;
    unsigned shards = 1;
    Cycle shardEpoch = 0;
    std::unique_ptr<ThreadPool> pool; ///< only when shards > 1
    Cycle warmup = 0;
    Cycle measure = 0;
    bool measurementBegun = false;
    bool finished = false;

    Cycle now() const { return sims.front()->now(); }

    /** Advance every shard by `n` cycles. Serial runs call straight
     *  into the single Simulator; sharded runs dispatch one epoch per
     *  shard onto the pool and barrier, so all shards observe the
     *  same sequence of (epoch-aligned) stop points. */
    void run(Cycle n)
    {
        if (sims.size() == 1) {
            sims.front()->run(n);
            return;
        }
        while (n > 0) {
            const Cycle e =
                shardEpoch > 0 ? std::min(n, shardEpoch) : n;
            for (auto &sm : sims) {
                Simulator *sp = sm.get();
                pool->submit([sp, e] { sp->run(e); });
            }
            pool->wait();
            n -= e;
        }
    }
};

ExperimentSystem::ExperimentSystem(const Config &cfg)
    : impl_(std::make_unique<Impl>())
{
    Impl &im = *impl_;
    im.cfg = cfg;
    const unsigned cores =
        static_cast<unsigned>(cfg.getUint("cores", 8));
    const std::string schedName = cfg.getString("sched", "baseline");
    const std::string workload = cfg.getString("workload", "mcf");
    im.cores = cores;
    im.schedName = schedName;
    im.workload = workload;

    dram::TimingParams tp = dram::TimingParams::ddr3_1600_4gb();
    dram::Geometry geo;
    const unsigned requestedChannels =
        static_cast<unsigned>(cfg.getUint("dram.channels", 1));
    geo.channels = requestedChannels;
    // Convenience: channel partitioning needs one channel per domain.
    // Say so out loud — a silently rewritten geometry makes bandwidth
    // and energy figures impossible to interpret — and record the
    // effective value in the result.
    if (cfg.getString("map.partition", "none") == "channel" &&
        geo.channels < cores) {
        geo.channels = cores;
        im.geometryOverridden = true;
        warn("channel partitioning needs one channel per domain: "
             "widening dram.channels {} -> {}",
             requestedChannels, geo.channels);
    }
    geo.ranksPerChannel =
        static_cast<unsigned>(cfg.getUint("dram.ranks", 8));
    geo.banksPerRank = static_cast<unsigned>(cfg.getUint("dram.banks", 8));
    geo.rowsPerBank =
        static_cast<unsigned>(cfg.getUint("dram.rows", 32768));
    geo.colsPerRow = static_cast<unsigned>(cfg.getUint("dram.cols", 128));

    im.tp = tp;
    im.geo = geo;
    im.map = std::make_unique<AddressMap>(
        geo, parsePartition(cfg.getString("map.partition", "none")),
        parseInterleave(cfg.getString("map.interleave", "close")),
        cores);
    AddressMap &map = *im.map;

    MemoryController::Params mcp;
    mcp.timing = tp;
    mcp.geo = geo;
    mcp.numDomains = cores;
    mcp.queueCapacity = cfg.getUint("mc.queue_capacity", 16);
    mcp.requestPoolCapacity = cfg.getUint("mc.request_pool", 64);
    // One controller per channel; all domains' queues exist on each
    // controller, but a core only ever talks to its own channel's.
    const unsigned numMcs = geo.channels;
    fatal_if(numMcs > 1 && map.partition() == Partition::Channel &&
                 schedName != "baseline",
             "channel partitioning runs a per-channel non-secure "
             "scheduler (nothing is shared); got '{}'",
             schedName);
    im.numMcs = numMcs;
    std::vector<std::unique_ptr<MemoryController>> &mcs = im.mcs;
    for (unsigned m = 0; m < numMcs; ++m) {
        mcs.push_back(std::make_unique<MemoryController>(
            "mc" + std::to_string(m), mcp, map));
    }
    // Crash command-log dumps: with a directory configured, parallel
    // campaign workers each write to a distinct fingerprint-tagged,
    // sequence-numbered file instead of racing over stderr.
    const std::string crashDir = cfg.getString("crash.dir", "");
    if (!crashDir.empty()) {
        const std::string tag = Campaign::fingerprint(cfg);
        for (auto &m : mcs)
            m->dram().setCrashDumpDir(crashDir, tag);
    }

    const bool refresh = cfg.getBool("dram.refresh", false);
    if (schedName == "baseline") {
        for (auto &m : mcs) {
            m->setScheduler(std::make_unique<sched::FrFcfsScheduler>(
                *m, cfg.getBool("core.prefetch", false), refresh));
        }
    } else if (schedName == "tp") {
        sched::TpScheduler::Params p;
        p.turnLength = static_cast<unsigned>(cfg.getUint("tp.turn", 60));
        p.extraDead =
            static_cast<unsigned>(cfg.getUint("tp.extra_dead", 0));
        // Each channel runs its own turn wheel over every domain;
        // domains mapped elsewhere simply present empty queues during
        // their turns. Dead turns cost bandwidth, never isolation.
        for (auto &m : mcs)
            m->setScheduler(std::make_unique<sched::TpScheduler>(*m, p));
    } else if (schedName == "fs") {
        sched::FsScheduler::Params p;
        const std::string mode = cfg.getString("fs.mode", "rank");
        if (mode == "rank")
            p.mode = sched::FsMode::RankPart;
        else if (mode == "bank")
            p.mode = sched::FsMode::BankPart;
        else if (mode == "none")
            p.mode = sched::FsMode::NoPart;
        else if (mode == "triple")
            p.mode = sched::FsMode::TripleAlt;
        else
            fatal("unknown fs.mode '{}'", mode);
        p.prefetchInDummies = cfg.getBool("fs.prefetch", false);
        p.suppressDummies = cfg.getBool("fs.suppress", false);
        p.rowBufferBoost = cfg.getBool("fs.boost", false);
        p.powerDown = cfg.getBool("fs.powerdown", false);
        p.refresh = refresh;
        p.rngSeed = cfg.getUint("seed", 1);
        // Pin the periodic reference (fs.ref = data|ras|cas) instead
        // of the per-partition smallest-l winner, so configs can
        // reach all five paper (reference, partition) design points.
        const std::string ref = cfg.getString("fs.ref", "");
        if (!ref.empty()) {
            p.pinRef = true;
            if (ref == "data")
                p.ref = core::PeriodicRef::Data;
            else if (ref == "ras")
                p.ref = core::PeriodicRef::Ras;
            else if (ref == "cas")
                p.ref = core::PeriodicRef::Cas;
            else
                fatal("unknown fs.ref '{}'", ref);
        }
        // SLA issue-slot weights: "2,1,1,..." (one entry per domain).
        const std::string weights = cfg.getString("fs.slot_weights", "");
        if (!weights.empty()) {
            // Every comma-separated token must be a whole decimal
            // number: "2,,1", "2,1," and "1x,1" are typos, not weights.
            for (size_t pos = 0;;) {
                const size_t comma = weights.find(',', pos);
                const std::string tok = weights.substr(pos, comma - pos);
                unsigned w = 0;
                const char *end = tok.data() + tok.size();
                const auto [ptr, ec] = std::from_chars(tok.data(), end, w);
                fatal_if(tok.empty() || ec != std::errc() || ptr != end,
                         "config key 'fs.slot_weights' has bad weight "
                         "'{}' in '{}'",
                         tok, weights);
                p.slotWeights.push_back(w);
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
        }
        for (unsigned m = 0; m < numMcs; ++m) {
            sched::FsScheduler::Params pm = p;
            if (numMcs > 1 && pm.slotWeights.empty()) {
                pm.slotWeights.assign(cores, 0);
                for (DomainId d = 0; d < cores; ++d) {
                    if (map.channelOf(d) == m)
                        pm.slotWeights[d] = 1;
                }
            }
            mcs[m]->setScheduler(
                std::make_unique<sched::FsScheduler>(*mcs[m], pm));
        }
    } else if (schedName == "fs_reordered") {
        sched::FsReorderedScheduler::Params p;
        p.rngSeed = cfg.getUint("seed", 1);
        for (auto &m : mcs) {
            m->setScheduler(
                std::make_unique<sched::FsReorderedScheduler>(*m, p));
        }
    } else {
        fatal("unknown scheduler '{}'", schedName);
    }

    // Fault injection (fault.kind != "none"): attach the injector and
    // the recoverable-error channel to every controller. Everything
    // stays strict when disabled, so default runs are bit-identical
    // to a build without this block. Snapshot-durability kinds only
    // perturb the checkpoint-load path, never the simulation itself.
    const fault::FaultSpec faultSpec = fault::FaultSpec::fromConfig(cfg);
    im.injector = std::make_unique<fault::FaultInjector>(faultSpec);
    fault::FaultInjector &injector = *im.injector;
    RunReport &report = im.report;
    const bool durabilityFault =
        faultSpec.kind == fault::FaultKind::SnapshotTruncate ||
        faultSpec.kind == fault::FaultKind::SnapshotBitflip ||
        faultSpec.kind == fault::FaultKind::SnapshotVersion ||
        faultSpec.kind == fault::FaultKind::JournalStale;
    if (injector.enabled() && !durabilityFault) {
        if (numMcs == 1) {
            mcs.front()->attachFaultInjector(&injector);
            mcs.front()->setReport(&report);
            if (faultSpec.kind == fault::FaultKind::RefreshSuppress)
                mcs.front()->dram().checker().expectRefresh(tp.refi);
        } else {
            // One injector PRNG and one error list per controller:
            // with a shared stream, which controller draws next would
            // depend on tick interleaving, and channel shards must be
            // free to tick in any order. Controller 0 keeps the
            // configured seed; the others get a fixed per-channel mix
            // so every stream is still reproducible from fault.seed.
            for (unsigned m = 0; m < numMcs; ++m) {
                fault::FaultSpec sm = faultSpec;
                if (m > 0)
                    sm.seed ^= 0x9E3779B97F4A7C15ull * m;
                im.mcInjectors.push_back(
                    std::make_unique<fault::FaultInjector>(sm));
                im.mcReports.emplace_back();
                mcs[m]->attachFaultInjector(im.mcInjectors.back().get());
                mcs[m]->setReport(&im.mcReports.back());
                if (faultSpec.kind == fault::FaultKind::RefreshSuppress)
                    mcs[m]->dram().checker().expectRefresh(tp.refi);
            }
        }
    }

    // Table-driven schedule replay was removed; a config that still
    // sets one of its keys would otherwise run interpreted in silence
    // while the stale key kept moving the campaign fingerprint.
    for (const char *key :
         {"sim.compiled", "sim.compiled_ring", "sim.compiled_intervals"}) {
        fatal_if(cfg.has(key),
                 "config key '{}' was removed along with compiled "
                 "schedule replay; delete it (every run is interpreted "
                 "and audited by the TimingChecker)",
                 key);
    }

    auto profiles = cpu::workloadMix(workload, cores);
    // Covert-channel senders: apply the leak.* protocol parameters to
    // every "modsender" profile so the sender and the analysis side
    // (leakage::ChannelParams::fromConfig on this same config) cannot
    // disagree about window length, seed, or duty factors.
    const leakage::ChannelParams leak =
        leakage::ChannelParams::fromConfig(cfg);
    // The symbol frame (leak.code.*: pilot preamble + coded payload)
    // is encoded once here and shared by every sender, exactly the
    // frame the analyzer reconstructs from the same config.
    const leakage::SymbolFrame leakFrame = leakage::encodeFrame(
        leakage::secretBits(leak.secretSeed, leak.secretBits),
        leak.code);
    for (auto &p : profiles) {
        if (p.name != "modsender")
            continue;
        p.modWindowCycles = leak.windowCycles;
        p.modSecretSeed = leak.secretSeed;
        p.modSecretBits = static_cast<unsigned>(leak.secretBits);
        p.modOffFactor = leak.offFactor;
        p.modSymbols = leakFrame.symbols;
    }
    // Open-loop cloud traffic (traffic.*): switch a domain's timing
    // from the closed-loop synthetic generator to an arrival process
    // (Poisson or MMPP, optional diurnal envelope). Global keys set
    // the default; traffic.d<i>.* overrides one domain, so a victim
    // can stay closed-loop while its co-runners model many clients.
    // The profile keeps supplying the address behaviour either way.
    {
        const std::string globalProc =
            cfg.getString("traffic.process", "none");
        for (unsigned i = 0; i < cores; ++i) {
            cpu::WorkloadProfile &p = profiles[i];
            const std::string pre =
                "traffic.d" + std::to_string(i) + ".";
            const std::string proc =
                cfg.getString(pre + "process", globalProc);
            if (proc.empty() || proc == "none")
                continue;
            auto dbl = [&](const char *key, double dflt) {
                return cfg.getDouble(
                    pre + key,
                    cfg.getDouble(std::string("traffic.") + key, dflt));
            };
            auto uns = [&](const char *key, unsigned dflt) {
                return static_cast<unsigned>(cfg.getUint(
                    pre + key,
                    cfg.getUint(std::string("traffic.") + key, dflt)));
            };
            p.trafficProcess = proc;
            p.trafficRate = dbl("rate", p.trafficRate);
            p.trafficClients = uns("clients", p.trafficClients);
            p.trafficBurstFactor =
                dbl("burst_factor", p.trafficBurstFactor);
            p.trafficIdleFactor =
                dbl("idle_factor", p.trafficIdleFactor);
            p.trafficBurstLen = dbl("burst_len", p.trafficBurstLen);
            p.trafficIdleLen = dbl("idle_len", p.trafficIdleLen);
            p.trafficDiurnalPeriod =
                dbl("diurnal_period", p.trafficDiurnalPeriod);
            p.trafficDiurnalAmp =
                dbl("diurnal_amp", p.trafficDiurnalAmp);
            p.storeFraction = dbl("store_fraction", p.storeFraction);
            p.mshrs = uns("mshrs", p.mshrs);
        }
    }
    const int64_t auditCore = cfg.getInt("audit.core", -1);
    im.auditCore = auditCore;

    std::vector<std::unique_ptr<cpu::CoreModel>> &coreModels =
        im.coreModels;
    for (unsigned i = 0; i < cores; ++i) {
        cpu::CoreModel::Params cp;
        cp.robSize = static_cast<unsigned>(cfg.getUint("core.rob", 64));
        cp.retireWidth =
            static_cast<unsigned>(cfg.getUint("core.retire_width", 4));
        cp.cpuMult =
            static_cast<unsigned>(cfg.getUint("core.cpu_mult", 4));
        cp.llcHitLatency = static_cast<unsigned>(
            cfg.getUint("core.llc_hit_latency", 10));
        cp.llcBytes = cfg.getUint("core.llc_kb", 512) * 1024;
        cp.llcWays =
            static_cast<unsigned>(cfg.getUint("core.llc_ways", 8));
        cp.prefetchEnabled = cfg.getBool("core.prefetch", false);
        // Functional warmup must cover the footprint despite the
        // profile's temporal-reuse fraction diluting unique touches.
        // Open-loop domains default to none: pulling records outside
        // simulated time would consume scheduled arrivals, and a cold
        // cache is the right model for a cloud tenant anyway.
        const bool openLoop =
            !profiles[i].trafficProcess.empty() &&
            profiles[i].trafficProcess != "none";
        const double freshFrac =
            std::max(0.05, 1.0 - profiles[i].reuseFraction);
        const auto warmDefault =
            openLoop ? uint64_t{0}
                     : static_cast<uint64_t>(
                           std::min(400000.0,
                                    6.0 * static_cast<double>(
                                              profiles[i]
                                                  .footprintLines) /
                                        freshFrac));
        cp.functionalWarmupRecords =
            cfg.getUint("core.functional_warmup", warmDefault);
        cp.warmupMemoEntries = cores;
        if (auditCore >= 0 && static_cast<unsigned>(auditCore) == i) {
            cp.captureTimeline = true;
            cp.progressInterval =
                cfg.getUint("audit.progress_interval", 10000);
        }
        MemoryController &myMc =
            *mcs[numMcs > 1 ? map.channelOf(i) % numMcs : 0];
        coreModels.push_back(std::make_unique<cpu::CoreModel>(
            "core" + std::to_string(i), i, cp, profiles[i],
            traceSeed(profiles[i].name, i, cfg.getUint("seed", 1)),
            myMc));
    }

    // Channel sharding: one Simulator per shard, shard k owning
    // controllers {m : m % shards == k} and the cores bound to them.
    // Components keep the historical registration order (cores
    // ascending, then controllers ascending) within each shard, so
    // shards == 1 reproduces the single-simulator run byte for byte.
    unsigned shards =
        static_cast<unsigned>(cfg.getUint("sim.shards", 1));
    if (shards < 1)
        shards = 1;
    if (shards > numMcs) {
        warn("sim.shards {} exceeds channel count {}; clamping",
             shards, numMcs);
        shards = numMcs;
    }
    im.shards = shards;
    im.shardEpoch = cfg.getUint("sim.shard_epoch", 8192);
    const bool fastForward = cfg.getBool("sim.fastforward", true);
    for (unsigned k = 0; k < shards; ++k) {
        im.sims.push_back(std::make_unique<Simulator>());
        im.sims.back()->setFastForward(fastForward);
    }
    if (shards > 1)
        im.pool = std::make_unique<ThreadPool>(shards);
    auto mcOfCore = [&](unsigned i) {
        return numMcs > 1 ? map.channelOf(i) % numMcs : 0u;
    };
    for (unsigned i = 0; i < cores; ++i)
        im.sims[mcOfCore(i) % shards]->add(coreModels[i].get());
    for (unsigned m = 0; m < numMcs; ++m)
        im.sims[m % shards]->add(mcs[m].get());

    const Cycle watchdog = cfg.getUint("sim.watchdog", 100000);
    if (watchdog > 0) {
        // Progress = instructions retired + DRAM commands issued; if
        // neither moves for a whole window the run is livelocked.
        // Each shard watches only its own components (a stalled shard
        // must not be masked by progress elsewhere); the captured
        // pointers are owned by the Impl, whose address is stable for
        // the system's lifetime. restoreState() overwrites the
        // watchdogs' last-progress books after this arms.
        for (unsigned k = 0; k < shards; ++k) {
            std::vector<const cpu::CoreModel *> wCores;
            std::vector<const MemoryController *> wMcs;
            for (unsigned i = 0; i < cores; ++i) {
                if (mcOfCore(i) % shards == k)
                    wCores.push_back(coreModels[i].get());
            }
            for (unsigned m = 0; m < numMcs; ++m) {
                if (m % shards == k)
                    wMcs.push_back(mcs[m].get());
            }
            im.sims[k]->setWatchdog(
                watchdog, [wCores, wMcs] {
                    uint64_t v = 0;
                    for (const auto *c : wCores)
                        v += c->retired();
                    for (const auto *m : wMcs)
                        v += m->dram().commandsIssued();
                    return v;
                });
        }
    }

    im.warmup = cfg.getUint("sim.warmup", 20000);
    im.measure = cfg.getUint("sim.measure", 200000);
}

ExperimentSystem::~ExperimentSystem() = default;

void
ExperimentSystem::step(Cycle maxCycles)
{
    Impl &im = *impl_;
    while (maxCycles > 0 && !done()) {
        if (!im.measurementBegun) {
            const Cycle left = im.warmup - im.now();
            const Cycle n = std::min(maxCycles, left);
            im.run(n);
            maxCycles -= n;
            if (im.now() >= im.warmup) {
                for (auto &c : im.coreModels)
                    c->beginMeasurement();
                for (auto &m : im.mcs)
                    m->beginMeasurement();
                im.measurementBegun = true;
            }
        } else {
            const Cycle end = im.warmup + im.measure;
            const Cycle n = std::min(maxCycles, end - im.now());
            im.run(n);
            maxCycles -= n;
        }
    }
}

bool
ExperimentSystem::done() const
{
    const Impl &im = *impl_;
    return im.measurementBegun &&
           im.now() >= im.warmup + im.measure;
}

Cycle
ExperimentSystem::now() const
{
    return impl_->now();
}

RunReport &
ExperimentSystem::report()
{
    return impl_->report;
}

fault::FaultInjector &
ExperimentSystem::injector()
{
    return *impl_->injector;
}

mem::MemoryController &
ExperimentSystem::controller(unsigned ch)
{
    return *impl_->mcs.at(ch);
}

void
ExperimentSystem::saveState(Serializer &s) const
{
    const Impl &im = *impl_;
    s.section("experiment");
    s.putBool(im.measurementBegun);
    im.injector->saveState(s);
    im.report.saveState(s);
    // Per-controller fault plumbing and shard count are functions of
    // the Config, and snapshots are fingerprint-bound to the Config,
    // so the element counts need no encoding.
    for (const auto &inj : im.mcInjectors)
        inj->saveState(s);
    for (const auto &rep : im.mcReports)
        rep.saveState(s);
    for (const auto &sm : im.sims)
        sm->saveState(s);
}

void
ExperimentSystem::restoreState(Deserializer &d)
{
    Impl &im = *impl_;
    d.section("experiment");
    im.measurementBegun = d.getBool();
    im.injector->restoreState(d);
    im.report.restoreState(d);
    for (auto &inj : im.mcInjectors)
        inj->restoreState(d);
    for (auto &rep : im.mcReports)
        rep.restoreState(d);
    for (auto &sm : im.sims)
        sm->restoreState(d);
    if (!d.atEnd())
        d.fail("trailing bytes after experiment state");
}

ExperimentResult
ExperimentSystem::finish()
{
    Impl &im = *impl_;
    panic_if(im.finished, "ExperimentSystem::finish() called twice");
    im.finished = true;
    const Config &cfg = im.cfg;
    auto &coreModels = im.coreModels;
    auto &mcs = im.mcs;
    const unsigned numMcs = im.numMcs;
    const int64_t auditCore = im.auditCore;
    fault::FaultInjector &injector = *im.injector;
    RunReport &report = im.report;
    const Cycle now = im.now();

    for (auto &m : mcs)
        m->scheduler().finalize(now);

    ExperimentResult res;
    res.scheme = cfg.getString("scheme", im.schedName);
    res.workload = im.workload;
    res.cores = im.cores;
    res.cyclesRun = now;
    res.effectiveChannels = im.geo.channels;
    res.geometryOverridden = im.geometryOverridden;
    res.shards = im.shards;
    for (const auto &sm : im.sims) {
        res.cyclesExecuted += sm->cyclesExecuted();
        res.cyclesSkipped += sm->cyclesSkipped();
    }
    for (auto &c : coreModels) {
        res.ipc.push_back(c->ipc());
        res.prefetchIssued += c->prefetchIssued();
        res.prefetchUseful += c->prefetchUseful();
        if (auditCore >= 0)
            res.timelines.push_back(c->timeline());
    }
    {
        double latSum = 0.0;
        double latN = 0.0;
        double bw = 0.0;
        double real = 0.0;
        double dummy = 0.0;
        for (auto &m : mcs) {
            const auto &st = m->stats();
            latSum += st.readLatency.mean() *
                      static_cast<double>(st.readLatency.count());
            latN += static_cast<double>(st.readLatency.count());
            bw += m->effectiveBandwidth(now);
            real += static_cast<double>(st.realBursts.value());
            dummy += static_cast<double>(st.dummyBursts.value());
            res.demandReads += st.demandReads.value();
        }
        res.meanReadLatency = latN > 0 ? latSum / latN : 0.0;
        res.effectiveBandwidth = bw / static_cast<double>(numMcs);
        res.dummyFraction =
            real + dummy > 0 ? dummy / (real + dummy) : 0.0;
    }

    // Client-observed per-domain latency, merged across controllers
    // (a domain's requests all land on one channel under channel
    // partitioning, but interleaved maps spread them).
    res.domainReadLatency.resize(im.cores);
    for (auto &h : res.domainReadLatency)
        h.init(0.0, 16.0, 1024);
    for (auto &m : mcs) {
        const auto &per = m->stats().domainReadLatency;
        for (unsigned dIdx = 0;
             dIdx < im.cores && dIdx < per.size(); ++dIdx)
            res.domainReadLatency[dIdx].merge(per[dIdx]);
    }

    res.faultsInjected = injector.injected();
    for (const auto &inj : im.mcInjectors)
        res.faultsInjected += inj->injected();
    for (auto &m : mcs) {
        res.timingViolations += m->dram().checker().violationCount();
        res.illegalIssues += m->dram().illegalIssues();
        for (const auto &kv : m->dram().checker().violationsByRule())
            res.violationRules[kv.first] += kv.second;
    }
    res.simErrors = report.errors();
    if (!im.mcReports.empty()) {
        // Interleave the per-controller error lists back into one
        // global timeline. stable_sort keeps each controller's own
        // arrival order for equal cycles, so the merge is a pure
        // function of the recorded errors — identical however the
        // shards were scheduled.
        for (const auto &rep : im.mcReports) {
            res.simErrors.insert(res.simErrors.end(),
                                 rep.errors().begin(),
                                 rep.errors().end());
        }
        std::stable_sort(res.simErrors.begin(), res.simErrors.end(),
                         [](const SimError &a, const SimError &b) {
                             return a.cycle < b.cycle;
                         });
    }

    {
        uint64_t hits = 0;
        uint64_t casTotal = 0;
        for (auto &m : mcs) {
            if (auto *fr = dynamic_cast<sched::FrFcfsScheduler *>(
                    &m->scheduler())) {
                const auto &e = fr->engine();
                hits += e.rowHits();
                casTotal += e.rowHits() + e.rowMisses();
            }
        }
        res.rowHitRate = casTotal > 0
                             ? static_cast<double>(hits) /
                                   static_cast<double>(casTotal)
                             : 0.0;
    }

    energy::PowerModel pm(energy::DeviceParams::ddr3_1600_4gb(), im.tp);
    for (auto &m : mcs) {
        for (unsigned r = 0; r < m->dram().numRanks(); ++r)
            res.energy += pm.rankEnergy(m->dram().energy(r));
    }

    // Optional full statistics dump ("stats.dump" = file path, or
    // "-" for stdout): every controller, scheduler, and core stat.
    const std::string dump = cfg.getString("stats.dump", "");
    if (!dump.empty()) {
        StatGroup all("experiment");
        std::deque<StatGroup> groups;
        for (size_t m = 0; m < mcs.size(); ++m) {
            groups.emplace_back("mc");
            mcs[m]->registerStats(groups.back());
            all.adopt("mc" + std::to_string(m), groups.back());
            groups.emplace_back("sched");
            mcs[m]->scheduler().registerStats(groups.back());
            all.adopt("mc" + std::to_string(m) + ".sched",
                      groups.back());
        }
        for (size_t i = 0; i < coreModels.size(); ++i) {
            groups.emplace_back("core");
            coreModels[i]->registerStats(groups.back());
            all.adopt("core" + std::to_string(i), groups.back());
        }
        if (dump == "-") {
            all.dump(std::cout);
        } else {
            std::ofstream out(dump);
            fatal_if(!out, "cannot open stats dump file '{}'", dump);
            all.dump(out);
        }
    }

    return res;
}

ExperimentResult
runExperiment(const Config &cfg)
{
    auto sys = std::make_unique<ExperimentSystem>(cfg);

    // Checkpoint/resume (docs/CHECKPOINT.md). ckpt.dir names the
    // snapshot directory; a valid <fingerprint>.snap continues the
    // run mid-flight, any rejected snapshot is reported as a
    // structured SimError and the run restarts from cycle 0 — never
    // a silent wrong digest.
    const std::string ckptDir = cfg.getString("ckpt.dir", "");
    std::string snapPath;
    std::string fp;
    bool resumed = false;
    if (!ckptDir.empty()) {
        ensureDirectory(ckptDir);
        fp = Campaign::fingerprint(cfg);
        snapPath = ckptDir + "/" + fp + ".snap";
        std::string bytes;
        if (readFileBytes(snapPath, bytes)) {
            sys->injector().corruptSnapshotBytes(bytes);
            bool restoring = false;
            try {
                const std::string payload = decodeSnapshot(bytes, fp);
                Deserializer d(payload);
                restoring = true;
                sys->restoreState(d);
                resumed = true;
            } catch (const SerializeError &e) {
                warn("snapshot {} rejected ({}); restarting run from "
                     "cycle 0",
                     snapPath, e.toString());
                // A payload that passed the container checks can still
                // fail part-way through the restore (an older layout
                // behind a renamed section tag), after the sections
                // before it were already applied. Start again from a
                // freshly built system, not a half-restored one.
                if (restoring)
                    sys = std::make_unique<ExperimentSystem>(cfg);
                sys->report().record(SimError{
                    sys->now(), e.category,
                    "snapshot rejected: " + e.message});
            }
        }
    }

    const Cycle interval = cfg.getUint("ckpt.interval_cycles", 0);
    // Test/CI hook: SIGKILL the process after K successful snapshot
    // writes, simulating a mid-campaign crash at a torn moment.
    const uint64_t killAfter =
        cfg.getUint("ckpt.kill_after_snapshots", 0);
    if (snapPath.empty() || interval == 0) {
        while (!sys->done())
            sys->step(kNoCycle);
    } else {
        uint64_t written = 0;
        while (!sys->done()) {
            sys->step(interval);
            if (sys->done())
                break;
            Serializer s;
            sys->saveState(s);
            writeFileAtomic(snapPath, encodeSnapshot(fp, s.data()));
            ++written;
            if (killAfter > 0 && written >= killAfter)
                raise(SIGKILL);
        }
    }

    ExperimentResult res = sys->finish();
    res.resumedFromSnapshot = resumed;
    if (!snapPath.empty())
        std::remove(snapPath.c_str());
    return res;
}

namespace {

/** Journal record tag; bump the version whenever the layout changes. */
constexpr std::string_view kResultSection = "result/v2";

} // namespace

void
serializeResult(Serializer &s, const ExperimentResult &r)
{
    s.section(kResultSection);
    s.putString(r.scheme);
    s.putString(r.workload);
    s.putU32(r.cores);
    s.putU64(r.cyclesRun);
    s.putU64(r.ipc.size());
    for (double v : r.ipc)
        s.putDouble(v);
    s.putDouble(r.meanReadLatency);
    s.putDouble(r.effectiveBandwidth);
    s.putDouble(r.dummyFraction);
    s.putDouble(r.rowHitRate);
    s.putDouble(r.energy.backgroundNj);
    s.putDouble(r.energy.activateNj);
    s.putDouble(r.energy.readWriteNj);
    s.putDouble(r.energy.refreshNj);
    s.putU64(r.prefetchIssued);
    s.putU64(r.prefetchUseful);
    s.putU64(r.demandReads);
    s.putU64(r.timelines.size());
    for (const auto &tl : r.timelines) {
        s.putU64(tl.service.size());
        for (const auto &ev : tl.service) {
            s.putU64(ev.ordinal);
            s.putU64(ev.arrival);
            s.putU64(ev.completed);
        }
        s.putU64(tl.progress.size());
        for (uint64_t p : tl.progress)
            s.putU64(p);
    }
    s.putU64(r.faultsInjected);
    s.putU64(r.timingViolations);
    s.putU64(r.illegalIssues);
    s.putU64(r.violationRules.size());
    for (const auto &kv : r.violationRules) {
        s.putString(kv.first);
        s.putU64(kv.second);
    }
    s.putU64(r.simErrors.size());
    for (const auto &e : r.simErrors) {
        s.putU64(e.cycle);
        s.putString(e.category);
        s.putString(e.message);
    }
    s.putU64(r.cyclesExecuted);
    s.putU64(r.cyclesSkipped);
    s.putBool(r.resumedFromSnapshot);
    s.putU32(r.effectiveChannels);
    s.putBool(r.geometryOverridden);
    s.putU32(r.shards);
    s.putU64(r.domainReadLatency.size());
    for (const auto &h : r.domainReadLatency) {
        s.putDouble(h.lo());
        s.putDouble(h.binWidth());
        s.putU64(h.bins().size());
        h.saveState(s);
    }
}

ExperimentResult
deserializeResult(Deserializer &d)
{
    d.section(kResultSection);
    ExperimentResult r;
    r.scheme = d.getString();
    r.workload = d.getString();
    r.cores = d.getU32();
    r.cyclesRun = d.getU64();
    const uint64_t nIpc = d.getU64();
    for (uint64_t i = 0; i < nIpc; ++i)
        r.ipc.push_back(d.getDouble());
    r.meanReadLatency = d.getDouble();
    r.effectiveBandwidth = d.getDouble();
    r.dummyFraction = d.getDouble();
    r.rowHitRate = d.getDouble();
    r.energy.backgroundNj = d.getDouble();
    r.energy.activateNj = d.getDouble();
    r.energy.readWriteNj = d.getDouble();
    r.energy.refreshNj = d.getDouble();
    r.prefetchIssued = d.getU64();
    r.prefetchUseful = d.getU64();
    r.demandReads = d.getU64();
    const uint64_t nTl = d.getU64();
    for (uint64_t t = 0; t < nTl; ++t) {
        core::VictimTimeline tl;
        const uint64_t nEv = d.getU64();
        for (uint64_t i = 0; i < nEv; ++i) {
            core::ServiceEvent ev;
            ev.ordinal = d.getU64();
            ev.arrival = d.getU64();
            ev.completed = d.getU64();
            tl.service.push_back(ev);
        }
        const uint64_t nPr = d.getU64();
        for (uint64_t i = 0; i < nPr; ++i)
            tl.progress.push_back(d.getU64());
        r.timelines.push_back(std::move(tl));
    }
    r.faultsInjected = d.getU64();
    r.timingViolations = d.getU64();
    r.illegalIssues = d.getU64();
    const uint64_t nRules = d.getU64();
    for (uint64_t i = 0; i < nRules; ++i) {
        const std::string rule = d.getString();
        r.violationRules[rule] = d.getU64();
    }
    const uint64_t nErr = d.getU64();
    for (uint64_t i = 0; i < nErr; ++i) {
        SimError e;
        e.cycle = d.getU64();
        e.category = d.getString();
        e.message = d.getString();
        r.simErrors.push_back(std::move(e));
    }
    r.cyclesExecuted = d.getU64();
    r.cyclesSkipped = d.getU64();
    r.resumedFromSnapshot = d.getBool();
    r.effectiveChannels = d.getU32();
    r.geometryOverridden = d.getBool();
    r.shards = d.getU32();
    const uint64_t nHist = d.getU64();
    for (uint64_t i = 0; i < nHist; ++i) {
        Histogram h;
        const double lo = d.getDouble();
        const double width = d.getDouble();
        const uint64_t nbins = d.getU64();
        h.init(lo, width, static_cast<size_t>(nbins));
        h.restoreState(d);
        r.domainReadLatency.push_back(std::move(h));
    }
    return r;
}

std::vector<double>
baselineIpc(const std::string &workload, const Config &base)
{
    Config cfg = base;
    cfg.merge(schemeConfig("baseline"));
    cfg.set("workload", workload);
    return runExperiment(cfg).ipc;
}

} // namespace memsec::harness
