#include "harness/experiment.hh"

#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <utility>

#include "cpu/core_model.hh"
#include "cpu/workload.hh"
#include "fault/fault_injector.hh"
#include "harness/campaign.hh"
#include "leakage/channel.hh"
#include "leakage/secret.hh"
#include "mem/address_map.hh"
#include "mem/memory_controller.hh"
#include "sched/factory.hh"
#include "sched/frfcfs.hh"
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

namespace {

using enum ConfigType;
using sched::SchedKind;

constexpr ConfigChoice<SchedKind> kSchedulers[] = {
    {"baseline", SchedKind::FrFcfs}, {"tp", SchedKind::Tp},
    {"fs", SchedKind::Fs}, {"fs_reordered", SchedKind::FsReordered}};

constexpr ConfigChoice<Partition> kPartitions[] = {
    {"none", Partition::None}, {"channel", Partition::Channel},
    {"rank", Partition::Rank}, {"bank", Partition::Bank}};

constexpr ConfigChoice<Interleave> kInterleaves[] = {
    {"open", Interleave::OpenPage}, {"close", Interleave::ClosePage}};

constexpr ConfigChoice<core::PeriodicRef> kFsRefs[] = {
    {"data", core::PeriodicRef::Data}, {"ras", core::PeriodicRef::Ras},
    {"cas", core::PeriodicRef::Cas}};

/** traffic.process values, each mapped to "is open-loop". */
constexpr ConfigChoice<bool> kTrafficProcesses[] = {
    {"none", false}, {"poisson", true}, {"mmpp", true}};

/** What each scheme name sets; the energy optimisations of Figure 9
 *  are cumulative. */
constexpr std::pair<const char *, const char *> kSchemes[] = {
    {"baseline", "sched=baseline map.partition=none map.interleave=open"},
    {"baseline_prefetch", "sched=baseline map.partition=none "
                          "map.interleave=open core.prefetch=true"},
    {"fs_rp", "sched=fs map.partition=rank"},
    {"fs_rp_prefetch",
     "sched=fs map.partition=rank core.prefetch=true fs.prefetch=true"},
    {"fs_rp_suppress", "sched=fs map.partition=rank fs.suppress=true"},
    {"fs_rp_boost",
     "sched=fs map.partition=rank fs.suppress=true fs.boost=true"},
    {"fs_rp_powerdown", "sched=fs map.partition=rank fs.suppress=true "
                        "fs.boost=true fs.powerdown=true"},
    {"fs_bp", "sched=fs map.partition=bank"},
    {"fs_reordered_bp", "sched=fs_reordered map.partition=bank"},
    {"fs_np", "sched=fs map.partition=none"},
    {"fs_np_triple", "sched=fs fs.triple=true map.partition=none"},
    {"tp_bp", "sched=tp map.partition=bank map.interleave=open tp.turn=60"},
    {"tp_np", "sched=tp map.partition=none map.interleave=open tp.turn=172"},
    // Section 4.1: with at most one domain per channel nothing is
    // shared, so the non-secure scheduler is already leak-free.
    {"channel_part",
     "sched=baseline map.partition=channel map.interleave=open"},
};

/** Cycles each channel shard runs between barriers; shards never
 *  interact, so the length cannot change a result. */
constexpr Cycle kShardEpoch = 8192;

constexpr const char *kEpochRemoved =
    "because shards never interact, so its length could not change a "
    "result; delete it (shards meet every 8192 cycles)";
constexpr const char *kPoolRemoved =
    "along with the controller's request pool; delete it (scheduler "
    "dummies are ordinary heap allocations)";
constexpr const char *kExtraDeadRemoved =
    "because no run ever set it; delete it (TP's dead time is the "
    "derived transaction footprint, as in the paper)";
constexpr const char *kReplayRemoved =
    "along with compiled schedule replay; delete it (every run is "
    "interpreted and audited by the TimingChecker)";
constexpr const char *kModeRemoved =
    "because FS solves its pipeline for the map.partition it runs on; "
    "delete it (triple alternation is fs.triple = true)";

// The traffic.* rows also cover each per-domain traffic.d<i>.<key>.
// A null default is computed by the reader (docs/CONFIG.md).
constexpr ConfigKey kHarnessKeys[] = {
    {"scheme", String},
    {"sched", String, "baseline", choiceNames<kSchedulers>},
    {"cores", Uint, "8", nullptr, 1},
    {"workload", String, "mcf"},
    {"seed", Uint, "1"},
    {"dram.channels", Uint, "1", nullptr, 1},
    {"dram.ranks", Uint, "8", nullptr, 1},
    {"dram.banks", Uint, "8", nullptr, 1},
    {"dram.rows", Uint, "32768", nullptr, 1},
    {"dram.cols", Uint, "128", nullptr, 1},
    {"dram.refresh", Bool, "false"},
    {"map.partition", String, "none", choiceNames<kPartitions>},
    {"map.interleave", String, "close", choiceNames<kInterleaves>},
    {"mc.queue_capacity", Uint, "16", nullptr, 1},
    {.name = "mc.request_pool", .type = Uint, .removed = kPoolRemoved},
    {"core.rob", Uint, "64", nullptr, 1},
    {"core.retire_width", Uint, "4", nullptr, 1},
    {"core.cpu_mult", Uint, "4", nullptr, 1},
    {"core.llc_kb", Uint, "512", nullptr, 1},
    {"core.llc_ways", Uint, "8", nullptr, 1},
    {"core.llc_hit_latency", Uint, "10"},
    {"core.prefetch", Bool, "false"},
    {"core.functional_warmup", Uint},
    {.name = "fs.mode", .type = String, .removed = kModeRemoved},
    {"fs.triple", Bool, "false"},
    {"fs.ref", String, nullptr, choiceNames<kFsRefs>},
    {"fs.slot_weights", String},
    {"fs.suppress", Bool, "false"},
    {"fs.boost", Bool, "false"},
    {"fs.powerdown", Bool, "false"},
    {"fs.prefetch", Bool, "false"},
    {"tp.turn", Uint, "60", nullptr, 1},
    {.name = "tp.extra_dead", .type = Uint, .removed = kExtraDeadRemoved},
    {"sim.warmup", Uint, "20000"},
    {"sim.measure", Uint, "200000"},
    {"sim.watchdog", Uint, "100000"},
    {"sim.fastforward", Bool, "true"},
    {"sim.shards", Uint, "1", nullptr, 1},
    {.name = "sim.shard_epoch", .type = Uint, .removed = kEpochRemoved},
    {.name = "sim.compiled", .type = String, .removed = kReplayRemoved},
    {.name = "sim.compiled_ring", .type = String, .removed = kReplayRemoved},
    {.name = "sim.compiled_intervals", .type = String,
     .removed = kReplayRemoved},
    {"audit.core", Int, "-1", nullptr, -1},
    {"audit.progress_interval", Uint, "10000"},
    {"stats.dump", String},
    {"traffic.process", String, "none", choiceNames<kTrafficProcesses>},
    {"traffic.rate", Double},
    {"traffic.clients", Uint},
    {"traffic.burst_factor", Double},
    {"traffic.idle_factor", Double},
    {"traffic.burst_len", Double},
    {"traffic.idle_len", Double},
    {"traffic.diurnal_period", Double},
    {"traffic.diurnal_amp", Double},
    {"traffic.store_fraction", Double},
    {"traffic.mshrs", Uint},
    {.name = "ckpt.dir", .type = String, .digest = false},
    {.name = "ckpt.interval_cycles", .type = Uint, .digest = false},
    {.name = "ckpt.kill_after_snapshots", .type = Uint, .digest = false},
    {.name = "crash.dir", .type = String, .digest = false},
};

SchedKind
schedOf(const Config &cfg)
{
    return choiceValue(kSchedulers, "sched", cfg.getString("sched"));
}

unsigned
coresOf(const Config &cfg)
{
    return static_cast<unsigned>(cfg.getUint("cores"));
}

/** The DRAM geometry the system is built with. Channel partitioning
 *  needs one channel per domain, so it widens dram.channels. */
dram::Geometry
geometryOf(const Config &cfg)
{
    dram::Geometry geo;
    geo.channels = static_cast<unsigned>(cfg.getUint("dram.channels"));
    if (partitionOf(cfg) == Partition::Channel)
        geo.channels = std::max(geo.channels, coresOf(cfg));
    geo.ranksPerChannel = static_cast<unsigned>(cfg.getUint("dram.ranks"));
    geo.banksPerRank = static_cast<unsigned>(cfg.getUint("dram.banks"));
    geo.rowsPerBank = static_cast<unsigned>(cfg.getUint("dram.rows"));
    geo.colsPerRow = static_cast<unsigned>(cfg.getUint("dram.cols"));
    return geo;
}

/** Read fs.slot_weights ("2,1,1,..."; empty = equal weights) into
 *  `out`: the first token that is not a whole decimal number, or "". */
std::string
readSlotWeights(const Config &cfg, std::vector<unsigned> &out)
{
    const std::string weights = cfg.getString("fs.slot_weights");
    for (size_t pos = 0; !weights.empty();) {
        const size_t comma = weights.find(',', pos);
        const std::string tok = weights.substr(pos, comma - pos);
        unsigned w = 0;
        const char *end = tok.data() + tok.size();
        const auto [ptr, ec] = std::from_chars(tok.data(), end, w);
        if (tok.empty() || ec != std::errc() || ptr != end)
            return "bad weight '" + tok + "' in '" + weights + "'";
        out.push_back(w);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return "";
}

AddressMap
mapOf(const Config &cfg)
{
    return AddressMap(geometryOf(cfg), partitionOf(cfg),
                      choiceValue(kInterleaves, "map.interleave",
                                  cfg.getString("map.interleave")),
                      coresOf(cfg));
}

/** Channel `m`'s scheduler. Each channel runs its own over every
 *  domain; domains mapped elsewhere present empty queues. TP gives
 *  them dead turns, which cost bandwidth, never isolation;
 *  multi-channel FS gives them no slots unless fs.slot_weights says
 *  otherwise. */
sched::SchedSpec
channelSpec(const Config &cfg, const AddressMap &map, unsigned m)
{
    sched::SchedSpec s = schedSpec(cfg);
    if (s.kind == SchedKind::Fs && map.geometry().channels > 1 &&
        s.fs.slotWeights.empty()) {
        s.fs.slotWeights.assign(coresOf(cfg), 0);
        for (DomainId d = 0; d < coresOf(cfg); ++d)
            s.fs.slotWeights[d] = map.channelOf(d) == m;
    }
    return s;
}

// The fs.* and tp.* rows hold under their own scheduler alone.
// docs/CONFIG.md ("Combination rules") gives each row's reason.
constexpr ConfigRule kCombinationRules[] = {
    {"channel-needs-baseline",
     "sched with map.partition = channel on several channels:",
     "set sched = baseline",
     [](const Config &c) -> std::string {
         return partitionOf(c) == Partition::Channel &&
                        geometryOf(c).channels > 1 &&
                        schedOf(c) != SchedKind::FrFcfs
                    ? "channel partitioning runs a per-channel non-secure "
                      "scheduler (nothing is shared)"
                    : "";
     }},
    {"triple-unpartitioned", "map.partition with fs.triple = true:",
     "set map.partition = none or fs.triple = false",
     [](const Config &c) -> std::string {
         return schedOf(c) != SchedKind::Fs
                    ? ""
                    : sched::FsScheduler::tripleError(schedSpec(c).fs,
                                                      partitionOf(c));
     }},
    {"powerdown-rank", "fs.powerdown with map.partition:",
     "set map.partition = rank or fs.powerdown = false",
     [](const Config &c) -> std::string {
         return schedOf(c) != SchedKind::Fs
                    ? ""
                    : sched::FsScheduler::powerDownError(schedSpec(c).fs,
                                                         partitionOf(c));
     }},
    {"reordered-partition", "map.partition with sched = fs_reordered:",
     "set map.partition to bank, rank or channel",
     [](const Config &c) -> std::string {
         return schedOf(c) != SchedKind::FsReordered
                    ? ""
                    : sched::FsReorderedScheduler::partitionError(
                          partitionOf(c));
     }},
    {"partition-fit", "map.partition with cores and dram.*:",
     "change map.partition, cores, dram.channels, dram.ranks or dram.banks",
     [](const Config &c) {
         return mem::AddressMap::fitError(geometryOf(c), partitionOf(c),
                                          coresOf(c));
     }},
    {"tp-turn-footprint", "tp.turn with map.partition:", "raise tp.turn",
     [](const Config &c) -> std::string {
         return schedOf(c) != SchedKind::Tp
                    ? ""
                    : sched::TpScheduler::turnError(
                          dram::TimingParams::ddr3_1600_4gb(),
                          partitionOf(c),
                          static_cast<unsigned>(c.getUint("tp.turn")));
     }},
    {"slot-weights", "config key 'fs.slot_weights' has",
     "write one whole decimal number per core",
     [](const Config &c) -> std::string {
         if (schedOf(c) != SchedKind::Fs)
             return "";
         std::vector<unsigned> weights;
         const std::string bad = readSlotWeights(c, weights);
         return !bad.empty() ? bad
                             : sched::FsScheduler::weightsError(
                                   schedSpec(c).fs, coresOf(c));
     }},
    {"fs-refresh-fit", "dram.refresh with sched = fs and cores:",
     "set dram.refresh = false or lower cores",
     [](const Config &c) -> std::string {
         if (schedOf(c) != SchedKind::Fs || !c.getBool("dram.refresh") ||
             !AddressMap::fitError(geometryOf(c), partitionOf(c), coresOf(c))
                  .empty())
             return "";
         const AddressMap map = mapOf(c);
         std::string bad;
         for (unsigned m = 0; m < map.geometry().channels && bad.empty(); ++m)
             bad = sched::FsScheduler::refreshError(
                 channelSpec(c, map, m).fs,
                 dram::TimingParams::ddr3_1600_4gb(), map);
         return bad;
     }},
};

} // namespace

Partition
partitionOf(const Config &cfg)
{
    return choiceValue(kPartitions, "map.partition",
                       cfg.getString("map.partition"));
}

sched::SchedSpec
schedSpec(const Config &cfg)
{
    sched::SchedSpec s;
    s.kind = schedOf(cfg);
    s.prefetch = cfg.getBool("core.prefetch");
    s.refresh = cfg.getBool("dram.refresh");
    s.tp.turnLength = static_cast<unsigned>(cfg.getUint("tp.turn"));
    s.reordered.rngSeed = cfg.getUint("seed");
    sched::FsScheduler::Params &p = s.fs;
    p.triple = cfg.getBool("fs.triple");
    p.prefetchInDummies = cfg.getBool("fs.prefetch");
    p.suppressDummies = cfg.getBool("fs.suppress");
    p.rowBufferBoost = cfg.getBool("fs.boost");
    p.powerDown = cfg.getBool("fs.powerdown");
    p.refresh = s.refresh;
    p.rngSeed = cfg.getUint("seed");
    // Pin the periodic reference (fs.ref = data|ras|cas) instead of
    // the per-partition smallest-l winner, so configs can reach all
    // five paper (reference, partition) design points.
    const std::string ref = cfg.getString("fs.ref");
    if (!ref.empty()) {
        p.pinRef = true;
        p.ref = choiceValue(kFsRefs, "fs.ref", ref);
    }
    readSlotWeights(cfg, p.slotWeights);
    return s;
}

std::span<const ConfigRule>
combinationRules()
{
    return kCombinationRules;
}

std::string
configProblems(const Config &cfg)
{
    // A per-domain traffic.d<i>.<key> is checked as traffic.<key>,
    // for i < cores.
    const uint64_t cores = std::strtoull(
        withDefaults(cfg, kHarnessKeys).getString("cores").c_str(),
        nullptr, 10);
    const auto rowOf = [cores](const std::string &key) -> std::string {
        if (key.rfind("traffic.d", 0) != 0)
            return key;
        unsigned d = 0;
        const char *last = key.data() + key.size();
        const auto [dot, ec] = std::from_chars(key.data() + 9, last, d);
        if (ec != std::errc() || dot == last || *dot != '.')
            return key; // not per-domain, e.g. traffic.diurnal_amp
        return d < cores ? "traffic." + std::string(dot + 1, last) : "";
    };
    return configErrors(cfg, configSchema(), rowOf, kCombinationRules);
}

std::span<const ConfigKey>
configSchema()
{
    static const std::vector<ConfigKey> all = [] {
        std::vector<ConfigKey> v(std::begin(kHarnessKeys),
                                 std::end(kHarnessKeys));
        for (auto keys : {leakage::leakConfigKeys, fault::faultConfigKeys})
            v.insert(v.end(), keys.begin(), keys.end());
        return v;
    }();
    return all;
}

Config
defaultConfig()
{
    return withDefaults(Config{}, configSchema());
}

Config
schemeConfig(const std::string &scheme)
{
    const auto it = std::find_if(
        std::begin(kSchemes), std::end(kSchemes),
        [&](const auto &entry) { return scheme == entry.first; });
    fatal_if(it == std::end(kSchemes), "unknown scheme '{}'", scheme);
    Config c;
    c.set("scheme", scheme);
    std::istringstream settings(it->second);
    for (std::string kv; settings >> kv;) {
        const size_t eq = kv.find('=');
        c.set(kv.substr(0, eq), kv.substr(eq + 1));
    }
    return c;
}

std::vector<std::string>
allSchemes()
{
    std::vector<std::string> out;
    for (const auto &entry : kSchemes)
        out.push_back(entry.first);
    return out;
}

namespace {

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
    dram::TimingParams tp;
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
    std::unique_ptr<ThreadPool> pool; ///< only when shards > 1
    Cycle warmup = 0;
    Cycle measure = 0;
    bool measurementBegun = false;
    bool finished = false;

    Cycle now() const { return sims.front()->now(); }

    /** Per-controller fault plumbing and shard count are functions of
     *  the Config, and snapshots are fingerprint-bound to the Config,
     *  so the element counts need no encoding. */
    template <class Self, class Ar>
    static void io(Self &im, Ar &ar)
    {
        ar.section("experiment");
        ar.io(im.measurementBegun, *im.injector, im.report);
        for (auto &inj : im.mcInjectors)
            ar.io(*inj);
        for (auto &rep : im.mcReports)
            ar.io(rep);
        for (auto &sm : im.sims)
            ar.io(*sm);
        if constexpr (Ar::loading) {
            if (!ar.atEnd())
                ar.fail("trailing bytes after experiment state");
        }
    }

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
            const Cycle e = std::min(n, kShardEpoch);
            for (auto &sm : sims) {
                Simulator *sp = sm.get();
                pool->submit([sp, e] { sp->run(e); });
            }
            pool->wait();
            n -= e;
        }
    }
};

ExperimentSystem::ExperimentSystem(const Config &config)
    : impl_(std::make_unique<Impl>())
{
    Impl &im = *impl_;
    const std::string problems = configProblems(config);
    fatal_if(!problems.empty(), "invalid config:{}", problems);
    im.cfg = withDefaults(config, configSchema());
    const Config &cfg = im.cfg;
    const unsigned cores = coresOf(cfg);
    const std::string workload = cfg.getString("workload");

    const dram::TimingParams tp = dram::TimingParams::ddr3_1600_4gb();
    const dram::Geometry geo = geometryOf(cfg);
    // Say out loud that channel partitioning widened the geometry — a
    // silently rewritten one makes bandwidth and energy figures
    // impossible to interpret — and record it in the result.
    const uint64_t requestedChannels = cfg.getUint("dram.channels");
    if (geo.channels != requestedChannels) {
        im.geometryOverridden = true;
        warn("channel partitioning needs one channel per domain: "
             "widening dram.channels {} -> {}",
             requestedChannels, geo.channels);
    }
    im.tp = tp;
    im.map = std::make_unique<AddressMap>(mapOf(cfg));
    AddressMap &map = *im.map;

    MemoryController::Params mcp;
    mcp.timing = tp;
    mcp.geo = geo;
    mcp.numDomains = cores;
    mcp.queueCapacity = cfg.getUint("mc.queue_capacity");
    // One controller per channel; all domains' queues exist on each
    // controller, but a core only ever talks to its own channel's.
    const unsigned numMcs = geo.channels;
    im.numMcs = numMcs;
    std::vector<std::unique_ptr<MemoryController>> &mcs = im.mcs;
    for (unsigned m = 0; m < numMcs; ++m) {
        mcs.push_back(std::make_unique<MemoryController>(
            "mc" + std::to_string(m), mcp, map));
    }
    // Crash command-log dumps: with a directory configured, parallel
    // campaign workers each write to a distinct fingerprint-tagged,
    // sequence-numbered file instead of racing over stderr.
    const std::string crashDir = cfg.getString("crash.dir");
    if (!crashDir.empty()) {
        const std::string tag = Campaign::fingerprint(cfg);
        for (auto &m : mcs)
            m->dram().setCrashDumpDir(crashDir, tag);
    }

    for (unsigned m = 0; m < numMcs; ++m)
        mcs[m]->setScheduler(
            sched::makeScheduler(*mcs[m], channelSpec(cfg, map, m)));

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
        for (unsigned m = 0; m < numMcs; ++m) {
            fault::FaultInjector *inj = &injector;
            RunReport *rep = &report;
            if (numMcs > 1) {
                // One injector PRNG and one error list per controller:
                // with a shared stream, which controller draws next
                // would depend on tick interleaving, and channel shards
                // must be free to tick in any order. Controller 0 keeps
                // the configured seed; the others get a fixed
                // per-channel mix so every stream is still reproducible
                // from fault.seed.
                fault::FaultSpec sm = faultSpec;
                if (m > 0)
                    sm.seed ^= 0x9E3779B97F4A7C15ull * m;
                inj = im.mcInjectors
                          .emplace_back(
                              std::make_unique<fault::FaultInjector>(sm))
                          .get();
                rep = &im.mcReports.emplace_back();
            }
            mcs[m]->attachFaultInjector(inj);
            mcs[m]->setReport(rep);
            if (faultSpec.kind == fault::FaultKind::RefreshSuppress)
                mcs[m]->dram().checker().expectRefresh(tp.refi);
        }
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
        const std::string globalProc = cfg.getString("traffic.process");
        for (unsigned i = 0; i < cores; ++i) {
            cpu::WorkloadProfile &p = profiles[i];
            const std::string pre =
                "traffic.d" + std::to_string(i) + ".";
            const std::string proc =
                cfg.getString(pre + "process", globalProc);
            if (!choiceValue(kTrafficProcesses, pre + "process", proc))
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
    const int64_t auditCore = cfg.getInt("audit.core");
    im.auditCore = auditCore;

    std::vector<std::unique_ptr<cpu::CoreModel>> &coreModels =
        im.coreModels;
    for (unsigned i = 0; i < cores; ++i) {
        cpu::CoreModel::Params cp;
        cp.robSize = static_cast<unsigned>(cfg.getUint("core.rob"));
        cp.retireWidth =
            static_cast<unsigned>(cfg.getUint("core.retire_width"));
        cp.cpuMult = static_cast<unsigned>(cfg.getUint("core.cpu_mult"));
        cp.llcHitLatency =
            static_cast<unsigned>(cfg.getUint("core.llc_hit_latency"));
        cp.llcBytes = cfg.getUint("core.llc_kb") * 1024;
        cp.llcWays = static_cast<unsigned>(cfg.getUint("core.llc_ways"));
        cp.prefetchEnabled = cfg.getBool("core.prefetch");
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
            cp.progressInterval = cfg.getUint("audit.progress_interval");
        }
        // A core only ever talks to its own channel's controller.
        coreModels.push_back(std::make_unique<cpu::CoreModel>(
            "core" + std::to_string(i), i, cp, profiles[i],
            traceSeed(profiles[i].name, i, cfg.getUint("seed")),
            *mcs[map.channelOf(i)]));
    }

    // Channel sharding: one Simulator per shard, shard k owning
    // controllers {m : m % shards == k} and the cores bound to them.
    // Components keep the historical registration order (cores
    // ascending, then controllers ascending) within each shard, so
    // shards == 1 reproduces the single-simulator run byte for byte.
    unsigned shards = static_cast<unsigned>(cfg.getUint("sim.shards"));
    if (shards > numMcs) {
        warn("sim.shards {} exceeds channel count {}; clamping",
             shards, numMcs);
        shards = numMcs;
    }
    im.shards = shards;
    const bool fastForward = cfg.getBool("sim.fastforward");
    for (unsigned k = 0; k < shards; ++k) {
        im.sims.push_back(std::make_unique<Simulator>());
        im.sims.back()->setFastForward(fastForward);
    }
    if (shards > 1)
        im.pool = std::make_unique<ThreadPool>(shards);
    // Progress = an instruction retired or a DRAM command issued; if
    // neither happens for a whole watchdog window the run is
    // livelocked. Each shard watches only its own components (a
    // stalled shard must not be masked by progress elsewhere); the
    // pointers are owned by the Impl, whose address is stable for the
    // system's lifetime. restoreState() overwrites the watchdogs'
    // last-progress books after this arms.
    std::vector<std::vector<const cpu::CoreModel *>> shardCores(shards);
    std::vector<std::vector<const MemoryController *>> shardMcs(shards);
    for (unsigned i = 0; i < cores; ++i) {
        const unsigned k = map.channelOf(i) % shards;
        im.sims[k]->add(coreModels[i].get());
        shardCores[k].push_back(coreModels[i].get());
    }
    for (unsigned m = 0; m < numMcs; ++m) {
        im.sims[m % shards]->add(mcs[m].get());
        shardMcs[m % shards].push_back(mcs[m].get());
    }
    const Cycle watchdog = cfg.getUint("sim.watchdog");
    for (unsigned k = 0; watchdog > 0 && k < shards; ++k) {
        im.sims[k]->setWatchdog(
            watchdog, [wCores = shardCores[k], wMcs = shardMcs[k]] {
                Cycle last = 0;
                for (const auto *c : wCores)
                    last = std::max(last, c->progressCycle());
                for (const auto *m : wMcs)
                    last = std::max(last, m->dram().progressCycle());
                return last;
            });
    }

    im.warmup = cfg.getUint("sim.warmup");
    im.measure = cfg.getUint("sim.measure");
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

const cpu::CoreModel &
ExperimentSystem::core(unsigned i) const
{
    return *impl_->coreModels.at(i);
}

void
ExperimentSystem::saveState(Serializer &s) const
{
    Impl::io(*impl_, s);
}

void
ExperimentSystem::restoreState(Deserializer &d)
{
    Impl::io(*impl_, d);
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
    res.scheme = cfg.getString("scheme", cfg.getString("sched"));
    res.workload = cfg.getString("workload");
    res.cores = static_cast<unsigned>(cfg.getUint("cores"));
    res.cyclesRun = now;
    res.effectiveChannels = im.numMcs;
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
    res.domainReadLatency.resize(res.cores);
    for (auto &h : res.domainReadLatency)
        h.init(0.0, 16.0, 1024);
    for (auto &m : mcs) {
        const auto &per = m->stats().domainReadLatency;
        for (unsigned dIdx = 0;
             dIdx < res.cores && dIdx < per.size(); ++dIdx)
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
    const std::string dump = cfg.getString("stats.dump");
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
    const std::string ckptDir = cfg.getString("ckpt.dir");
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

template <class Self, class Ar>
void
ExperimentResult::io(Self &self, Ar &ar)
{
    ar.section(kResultSection);
    ar.io(self.scheme, self.workload, self.cores, self.cyclesRun, self.ipc,
          self.meanReadLatency, self.effectiveBandwidth, self.dummyFraction,
          self.rowHitRate, self.energy.backgroundNj, self.energy.activateNj,
          self.energy.readWriteNj, self.energy.refreshNj,
          self.prefetchIssued, self.prefetchUseful, self.demandReads,
          self.timelines, self.faultsInjected, self.timingViolations,
          self.illegalIssues, self.violationRules, self.simErrors,
          self.cyclesExecuted, self.cyclesSkipped, self.resumedFromSnapshot,
          self.effectiveChannels, self.geometryOverridden, self.shards);
    // Each histogram carries its bin layout ahead of its contents.
    ar.seq(self.domainReadLatency, [&](auto &h) {
        double lo = h.lo();
        double width = h.binWidth();
        uint64_t bins = h.bins().size();
        ar.io(lo, width, bins);
        if constexpr (Ar::loading)
            h.init(lo, width, static_cast<size_t>(bins));
        ar.io(h);
    });
}

void
serializeResult(Serializer &s, const ExperimentResult &r)
{
    ExperimentResult::io(r, s);
}

ExperimentResult
deserializeResult(Deserializer &d)
{
    ExperimentResult r;
    ExperimentResult::io(r, d);
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
