/**
 * @file
 * Experiment harness: builds a full system (cores + private LLC
 * slices + memory controller + DRAM) from a Config, runs it, and
 * extracts the metrics the paper reports. Schemes are addressed by
 * the names used in Section 6/7 (allSchemes()).
 */

#ifndef MEMSEC_HARNESS_EXPERIMENT_HH
#define MEMSEC_HARNESS_EXPERIMENT_HH

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/noninterference.hh"
#include "energy/power_model.hh"
#include "sim/config.hh"
#include "sim/types.hh"
#include "stats/stats.hh"
#include "util/sim_error.hh"

namespace memsec {
class Serializer;
class Deserializer;
} // namespace memsec

namespace memsec::cpu {
class CoreModel;
} // namespace memsec::cpu

namespace memsec::fault {
class FaultInjector;
} // namespace memsec::fault

namespace memsec::mem {
class MemoryController;
} // namespace memsec::mem

namespace memsec::harness {

/** Everything one run produces. */
struct ExperimentResult
{
    std::string scheme;
    std::string workload;
    unsigned cores = 0;
    Cycle cyclesRun = 0;

    std::vector<double> ipc; ///< per core, measured region only
    double meanReadLatency = 0.0; ///< memory cycles
    double effectiveBandwidth = 0.0; ///< real-data bus utilisation
    double dummyFraction = 0.0; ///< dummy bursts / all bursts
    double rowHitRate = 0.0;    ///< baseline/TP only, else 0

    energy::EnergyBreakdown energy; ///< summed over ranks

    uint64_t prefetchIssued = 0;
    uint64_t prefetchUseful = 0;
    uint64_t demandReads = 0;

    /** Captured victim timelines (cores with audit enabled). */
    std::vector<core::VictimTimeline> timelines;

    /**
     * Client-observed read-latency histogram per security domain
     * (memory cycles, measured region only). Open-loop runs account
     * from the arrival stamp so client-side queueing shows up in the
     * p99/p99.9 tails; percentile() returns +inf when the requested
     * mass fell in the overflow bucket (an honest "SLA blown").
     */
    std::vector<Histogram> domainReadLatency;

    // -- fault-injection / failure-path accounting (all zero and
    //    empty when fault.kind is "none", the default) --
    uint64_t faultsInjected = 0;   ///< faults the injector fired
    uint64_t timingViolations = 0; ///< shadow-checker detections
    uint64_t illegalIssues = 0;    ///< illegal issues survived
    /** Violations per TimingChecker rule class ("tFAW", ...). */
    std::map<std::string, uint64_t> violationRules;
    /** Recoverable errors recorded during the run (capped). */
    std::vector<SimError> simErrors;

    // -- kernel accounting (deliberately NOT part of resultDigest():
    //    naive and fast-forward runs differ here by construction
    //    while every simulated observable stays byte-identical) --
    uint64_t cyclesExecuted = 0; ///< cycles the tick loop ran
    uint64_t cyclesSkipped = 0;  ///< cycles skipped by fast-forward
    /** True when the run continued from an on-disk checkpoint rather
     *  than starting at cycle 0. Not part of resultDigest(): a
     *  resumed run's observables are byte-identical by contract. */
    bool resumedFromSnapshot = false;
    /** Channel count actually simulated (after the channel-partition
     *  geometry bump). Not part of resultDigest(): a bumped geometry
     *  and the same geometry requested explicitly must digest
     *  identically. */
    unsigned effectiveChannels = 0;
    /** True when the harness widened dram.channels to cover every
     *  domain under channel partitioning (a warn() is emitted). */
    bool geometryOverridden = false;
    /** Channel shards stepped in parallel (sim.shards). Not part of
     *  resultDigest(): sharded and serial runs are byte-identical by
     *  contract (tests/test_shard_diff.cc). */
    unsigned shards = 1;

    /** Sum over cores of ipc[i] / baseIpc[i]. */
    double weightedIpc(const std::vector<double> &baseIpc) const;

    /** The journal record's walk (serializeResult's layout). */
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar);
};

/** Every declared config key: the harness's, leak.* and fault.*. */
std::span<const ConfigKey> configSchema();

/** Every combination rule, in the order problems are reported. */
std::span<const ConfigRule> combinationRules();

/** Every reason ExperimentSystem would refuse `cfg`, as configErrors()
 *  lists them, or "" if it accepts it. */
std::string configProblems(const Config &cfg);

/** The paper's Table 1 system: every static default of configSchema(). */
Config defaultConfig();

/**
 * Config fragment selecting a named scheme (scheduler + matching
 * partitioning + options). Merge over defaultConfig().
 */
Config schemeConfig(const std::string &scheme);

/** All scheme names schemeConfig() accepts. */
std::vector<std::string> allSchemes();

/**
 * Codec for campaign journal entries (<fp>.done files). The section
 * tag carries the record layout version, so an entry written by an
 * older layout fails to decode instead of decoding shifted.
 */
void serializeResult(Serializer &s, const ExperimentResult &r);
ExperimentResult deserializeResult(Deserializer &d);

/**
 * A fully constructed simulated system (cores + LLC slices + memory
 * controllers + DRAM + fault injector), steppable in chunks so the
 * harness can interleave execution with checkpoint writes.
 *
 * runExperiment() is the convenience wrapper: construct, optionally
 * restore from `ckpt.dir`, step to completion with periodic snapshots,
 * finish(). Long-horizon drivers use the class directly.
 */
class ExperimentSystem
{
  public:
    /** Fatal, before anything is built, unless configProblems(cfg)
     *  is empty; absent keys take their declared defaults. */
    explicit ExperimentSystem(const Config &cfg);
    ~ExperimentSystem();
    ExperimentSystem(const ExperimentSystem &) = delete;
    ExperimentSystem &operator=(const ExperimentSystem &) = delete;

    /**
     * Advance up to `maxCycles` memory cycles, handling the
     * warmup-to-measurement transition internally. Chunked stepping
     * is observable-identical to one uninterrupted run.
     */
    void step(Cycle maxCycles);

    /** True once warmup + measure cycles have elapsed. */
    bool done() const;

    /** Current simulation time in memory cycles. */
    Cycle now() const;

    /**
     * Finalize schedulers, extract every reported metric, and run the
     * optional stats dump. Call exactly once, after done().
     */
    ExperimentResult finish();

    /**
     * Serialize/restore the complete mutable simulation state: the
     * kernel clock, every component, the fault injector's PRNG, the
     * error report, and the measurement phase flag. A fresh
     * ExperimentSystem built from the identical Config and restored
     * from this stream continues with resultDigest()-byte-identical
     * observables (tests/test_checkpoint_diff.cc).
     */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

    /** The run's recoverable-error channel. */
    RunReport &report();

    /** The run's fault injector (snapshot corruption hooks). */
    fault::FaultInjector &injector();

    /** Channel `ch`'s memory controller (state inspection). */
    mem::MemoryController &controller(unsigned ch);

    /** Core `i` (state inspection). */
    const cpu::CoreModel &core(unsigned i) const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Build, warm up, run, and summarise one experiment. Honours the
 *  ckpt.* keys (docs/CONFIG.md) for snapshot/resume behaviour. */
ExperimentResult runExperiment(const Config &cfg);

/**
 * Convenience: baseline per-core IPCs for a workload under `base`
 * (used to normalise weighted IPC as in Figures 5/6/7/10).
 */
std::vector<double> baselineIpc(const std::string &workload,
                                const Config &base);

} // namespace memsec::harness

#endif // MEMSEC_HARNESS_EXPERIMENT_HH
