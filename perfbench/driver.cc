/**
 * @file
 * Benchmark driver: runs one named workload once, in this process,
 * and prints one JSON object with its host-time measurements,
 * simulated counts, correctness verdicts and result digest on stdout.
 * perfbench/run.py repeats it in fresh processes and reduces the
 * repetitions to medians; perfbench/WORKLOADS.md says why each
 * workload exists.
 *
 * The simulator is timed from outside, through public entry points
 * only: harness::Campaign with a timing Runner (one thread),
 * harness::ExperimentSystem (constructor, step, finish),
 * leakage::analyzeLeakage, analysis::NoninterferenceCertifier::certify
 * and analysis::ScheduleVerifier::minimalFeasible.
 *
 * Usage:
 *   perfbench_driver --workload NAME --seed N [--trace]
 *                    [--scratch DIR] [--spans FILE]
 *                    [--inject-fault KIND]
 *
 * Between experiments it times a fixed host speed probe (SpeedProbe);
 * run.py scales host times by it.
 *
 * --trace keeps every span in memory and writes them to --spans at
 * exit, dumps each experiment's statistics (stats.dump) into
 * --scratch, and times one extra construction per experiment with
 * core.functional_warmup=0. None of that may change a result digest;
 * run.py checks that it does not. --inject-fault arms a fault.kind on
 * the first experiment, to prove a failure is counted.
 */

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/noninterference_certifier.hh"
#include "analysis/schedule_verifier.hh"
#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "leakage/channel.hh"
#include "util/logging.hh"

using namespace memsec;

namespace {

using Clock = std::chrono::steady_clock;

/** One timed interval, as written to the span file. */
struct Span
{
    std::string name;
    double start = 0.0;  ///< seconds since the driver started
    double end = 0.0;
    int parent = -1;     ///< index of the enclosing span; -1 for a root
    int experiment = -1; ///< campaign submission index; -1 outside runs
};

/**
 * Times intervals around calls into the simulator. Every interval is
 * timed; only a traced run keeps spans, so an untraced run pays two
 * clock reads per interval and nothing else.
 */
class Tracer
{
  public:
    explicit Tracer(bool record) : record_(record), origin_(Clock::now())
    {
    }

    /** An open interval, closed by stop() or at scope exit. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, int experiment)
            : t_(t), start_(Clock::now())
        {
            if (!t_.record_)
                return;
            idx_ = static_cast<int>(t_.spans_.size());
            t_.spans_.push_back({name, t_.since(start_), 0.0,
                                 t_.open_.empty() ? -1 : t_.open_.back(),
                                 experiment});
            t_.open_.push_back(idx_);
        }
        ~Scope() { stop(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Close the interval (once); returns its host seconds. */
        double stop()
        {
            if (!stopped_) {
                stopped_ = true;
                end_ = Clock::now();
                if (idx_ >= 0) {
                    t_.spans_[idx_].end = t_.since(end_);
                    t_.open_.pop_back();
                }
            }
            return std::chrono::duration<double>(end_ - start_).count();
        }

      private:
        Tracer &t_;
        Clock::time_point start_;
        Clock::time_point end_;
        int idx_ = -1;
        bool stopped_ = false;
    };

    bool recording() const { return record_; }

    /** Write every span, one JSON object per line. */
    void write(const std::string &path) const;

  private:
    double since(Clock::time_point t) const
    {
        return std::chrono::duration<double>(t - origin_).count();
    }

    bool record_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_; ///< indices of the spans still open
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << v;
    return os.str();
}

void
Tracer::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    fatal_if(!out, "cannot write span file '{}'", path);
    for (const Span &s : spans_) {
        out << "{\"name\": " << jsonString(s.name)
            << ", \"start\": " << jsonNumber(s.start)
            << ", \"end\": " << jsonNumber(s.end)
            << ", \"parent\": " << s.parent
            << ", \"experiment\": " << s.experiment << "}\n";
    }
}

/** FNV-1a over digest text: a short printable fingerprint. */
std::string
shortHash(const std::string &text)
{
    uint64_t h = 0xCBF29CE484222325ull;
    for (const unsigned char ch : text)
        h = (h ^ ch) * 0x100000001B3ull;
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/**
 * Peak resident memory of this process so far in KiB, from VmHWM, or
 * -1 where there is none. VmHWM is reset by exec, while getrusage's
 * ru_maxrss carries the launching process's peak across fork+exec, so
 * a driver started from a larger parent would report the parent's.
 */
double
vmHwmKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr);
    }
    return -1.0;
}

/**
 * Host speed probe: a fixed piece of work outside the simulator, a
 * pointer chase around a 1 MiB cycle, timed between experiments. The
 * shared host's speed drifts by tens of percent over tens of seconds,
 * which repetitions inside a short run cannot average away; run.py
 * divides that drift out with the probe times. The chase tracked the
 * simulator's slowdowns better than an ALU loop or a 32 MiB chase.
 *
 * The table is mapped only while a probe runs. Each probe first
 * records the peak resident memory so far, then resets it through
 * /proc/self/clear_refs once the table is unmapped, so the probe's
 * megabyte is not counted in peakRssMb().
 */
class SpeedProbe
{
  public:
    /** Build the cycle, walk it once untimed, then time one chase. */
    void sample()
    {
        peakKb_ = std::max(peakKb_, vmHwmKb());
        const auto t0 = Clock::now();
        const size_t bytes = kEntries * sizeof(uint32_t);
        void *map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        fatal_if(map == MAP_FAILED, "cannot map the speed probe's table");
        uint32_t *next = static_cast<uint32_t *>(map);
        for (uint32_t i = 0; i < kEntries; ++i)
            next[i] = i;
        uint64_t x = 0x9E3779B97F4A7C15ull;
        // Sattolo's shuffle: one cycle through every entry.
        for (uint32_t i = kEntries - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(next[i], next[x % i]);
        }
        uint32_t p = chase(next, 0, kEntries);
        const auto t1 = Clock::now();
        p = chase(next, p, kSteps);
        const auto t2 = Clock::now();
        munmap(map, bytes);
        std::ofstream("/proc/self/clear_refs") << "5";
        sink_ = p;
        samples_.push_back(std::chrono::duration<double>(t2 - t1).count());
        overhead_ += std::chrono::duration<double>(t2 - t0).count();
    }

    /** Host seconds of each timed chase. */
    const std::vector<double> &samples() const { return samples_; }

    /** Host seconds spent probing, table building included. */
    double overheadSeconds() const { return overhead_; }

    /**
     * Peak resident memory in MiB outside the probes, or -1 without
     * VmHWM.
     */
    double peakRssMb() const
    {
        const double kb = std::max(peakKb_, vmHwmKb());
        return kb < 0.0 ? -1.0 : kb / 1024.0;
    }

  private:
    static constexpr uint32_t kEntries = 1u << 18;
    static constexpr uint32_t kSteps = 1500000;

    static uint32_t chase(const uint32_t *next, uint32_t p, uint32_t steps)
    {
        for (uint32_t i = 0; i < steps; ++i)
            p = next[p];
        return p;
    }

    std::vector<double> samples_;
    double overhead_ = 0.0;
    double peakKb_ = -1.0;
    volatile uint32_t sink_ = 0;
};

// ---- workloads ----------------------------------------------------

/** Figure benches' default run length (bench/bench_common.hh). */
constexpr Cycle kFigureWarmup = 15000;
constexpr Cycle kFigureMeasure = 120000;
/** Measured region of the two long-run workloads. */
constexpr Cycle kLongMeasure = 1000000;

/** The paper's Fig. 6 ratios to the FR-FCFS baseline. */
const std::vector<std::pair<std::string, double>> kPaperFig6 = {
    {"fs_rp", 0.73},        {"fs_reordered_bp", 0.48},
    {"tp_bp", 0.43},        {"fs_np_triple", 0.40},
    {"tp_np", 0.20}};

/** One covert-channel point of security_audit, as in fig_leakage. */
struct CovertPoint
{
    const char *label;
    const char *scheme;
    uint64_t window;
    bool expectOpen;
};

const std::vector<CovertPoint> kCovertPoints = {
    {"frfcfs/none", "baseline", 2000, true},
    {"fs/rank", "fs_rp", 1500, false},
};

struct Run
{
    std::string label;
    Config cfg;
};

/** Table 1 system at the figure benches' default scale. */
Config
baseConfig(uint64_t seed)
{
    Config c = harness::defaultConfig();
    c.set("cores", 8);
    c.set("sim.warmup", kFigureWarmup);
    c.set("sim.measure", kFigureMeasure);
    c.set("sim.shards", 1);
    c.set("seed", seed);
    return c;
}

Run
schemeRun(const std::string &scheme, const std::string &profile,
          uint64_t seed, Cycle measure)
{
    Config c = baseConfig(seed);
    c.merge(harness::schemeConfig(scheme));
    c.set("workload", profile);
    c.set("sim.measure", measure);
    return {profile + "/" + scheme, std::move(c)};
}

/** bench/fig_leakage's configuration of one covert point. */
Run
covertRun(const CovertPoint &pt, uint64_t seed)
{
    Config c = baseConfig(seed);
    c.merge(harness::schemeConfig(pt.scheme));
    std::string wl = "probe";
    for (int i = 0; i < 7; ++i)
        wl += ",modsender";
    c.set("workload", wl);
    c.set("audit.core", 0);
    c.set("sim.warmup", 0);
    c.set("sim.measure", 4 * kFigureMeasure);
    c.set("leak.window", pt.window);
    // Balanced secret (16 ones in 32 bits), fixed for every seed: a
    // refused decode then sits at BER 0.5 exactly.
    c.set("leak.secret_seed", 0xC0FFF2);
    c.set("leak.secret_bits", 32);
    c.set("leak.skip_windows", 2);
    c.set("leak.off_factor", 0.02);
    c.set("leak.mi_bins", 8);
    c.set("leak.mi_shuffles", 64);
    c.set("leak.code.scheme", "onoff");
    c.set("leak.code.preamble", 9);
    c.set("leak.code.repeat", 1);
    c.set("leak.code.adapt_timing", true);
    c.set("leak.code.adapt_guard", true);
    c.set("leak.code.min_separation", 0.5);
    c.set("leak.code.mi_bins", 4);
    return {pt.label, std::move(c)};
}

/** The experiments of a workload, in campaign submission order. */
std::vector<Run>
workloadRuns(const std::string &name, uint64_t seed)
{
    std::vector<Run> runs;
    if (name == "figure_campaign") {
        for (const char *profile : {"mix1", "mix2", "mcf", "lbm"}) {
            runs.push_back(
                schemeRun("baseline", profile, seed, kFigureMeasure));
            for (const auto &[scheme, ratio] : kPaperFig6)
                runs.push_back(
                    schemeRun(scheme, profile, seed, kFigureMeasure));
        }
    } else if (name == "frfcfs_long") {
        for (const char *profile : {"mcf", "lbm"})
            runs.push_back(
                schemeRun("baseline", profile, seed, kLongMeasure));
    } else if (name == "secure_long") {
        for (const char *scheme :
             {"fs_rp", "fs_reordered_bp", "fs_np", "tp_bp"})
            runs.push_back(schemeRun(scheme, "mix1", seed, kLongMeasure));
    } else if (name == "security_audit") {
        for (const CovertPoint &pt : kCovertPoints)
            runs.push_back(covertRun(pt, seed));
    }
    return runs;
}

// ---- measurement ---------------------------------------------------

/** Host seconds per phase of one experiment. */
struct RunTimes
{
    double construct = 0.0;
    double warmupStep = 0.0;
    double measureStep = 0.0;
    double finish = 0.0;
    double runner = 0.0;
    double constructNoWarmup = 0.0; ///< traced runs only
};

/** Correctness verdicts: each expect() is one attempted check. */
struct Checks
{
    uint64_t attempted = 0;
    std::vector<std::string> failures;

    void expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok)
            failures.push_back(what);
    }
};

/**
 * Sum a stats.dump file into `into`, keyed by stat name with the
 * component index dropped ("core3.llc_misses" -> "core.llc_misses",
 * "mc0.sched.real_ops" -> "mc.sched.real_ops").
 */
void
addStatsDump(const std::string &path, std::map<std::string, double> &into)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot read stats dump '{}'", path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string name;
        double value = 0.0;
        if (!(ls >> name >> value))
            continue;
        const size_t dot = name.find('.');
        size_t cut = dot == std::string::npos ? name.size() : dot;
        while (cut > 0 &&
               std::isdigit(static_cast<unsigned char>(name[cut - 1])))
            --cut;
        const size_t rest = dot == std::string::npos ? name.size() : dot;
        into[name.substr(0, cut) + name.substr(rest)] += value;
    }
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    bool trace = false;
    std::string scratch = ".";
    std::string spans;
    std::string injectFault;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            fatal_if(i + 1 >= argc, "{} needs a value", flag);
            return argv[++i];
        };
        if (flag == "--workload") {
            a.workload = value();
        } else if (flag == "--seed") {
            const std::string v = value();
            char *end = nullptr;
            a.seed = std::strtoull(v.c_str(), &end, 10);
            fatal_if(v.empty() || *end != '\0',
                     "--seed needs a non-negative integer, got '{}'", v);
        } else if (flag == "--trace") {
            a.trace = true;
        } else if (flag == "--scratch") {
            a.scratch = value();
        } else if (flag == "--spans") {
            a.spans = value();
        } else if (flag == "--inject-fault") {
            a.injectFault = value();
        } else {
            fatal("unknown flag '{}'", flag);
        }
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const Args args = parseArgs(argc, argv);
    std::vector<Run> runs = workloadRuns(args.workload, args.seed);
    fatal_if(runs.empty(), "unknown workload '{}'", args.workload);
    if (!args.injectFault.empty())
        runs.front().cfg.set("fault.kind", args.injectFault);

    Tracer tracer(args.trace);
    const auto wallStart = Clock::now();
    Tracer::Scope workloadSpan(tracer, "workload", -1);
    SpeedProbe probe;
    probe.sample();

    std::vector<RunTimes> times(runs.size());
    int nextRun = 0;
    auto statsPath = [&](int id) {
        return args.scratch + "/stats-" + std::to_string(id) + ".txt";
    };
    // Every phase of an experiment in its own span; the system is torn
    // down inside the runner span so its destructor is charged too. The
    // probe after it stays inside the runner span, out of the campaign
    // overhead.
    harness::Campaign campaign([&](const Config &cfg) {
        const int id = nextRun++;
        RunTimes &t = times.at(static_cast<size_t>(id));
        Tracer::Scope runSpan(tracer, "harness.run", id);
        Config c = cfg;
        if (tracer.recording())
            c.set("stats.dump", statsPath(id));
        std::unique_ptr<harness::ExperimentSystem> sys;
        {
            Tracer::Scope s(tracer, "harness.construct", id);
            sys = std::make_unique<harness::ExperimentSystem>(c);
            t.construct = s.stop();
        }
        {
            Tracer::Scope s(tracer, "sim.warmup_step", id);
            sys->step(c.getUint("sim.warmup", 0));
            t.warmupStep = s.stop();
        }
        {
            Tracer::Scope s(tracer, "sim.measure_step", id);
            while (!sys->done())
                sys->step(kNoCycle);
            t.measureStep = s.stop();
        }
        harness::ExperimentResult res;
        {
            Tracer::Scope s(tracer, "harness.finish", id);
            res = sys->finish();
            t.finish = s.stop();
        }
        sys.reset();
        probe.sample();
        t.runner = runSpan.stop();
        return res;
    });
    for (const Run &r : runs)
        campaign.add(r.label, r.cfg);
    double campaignSeconds = 0.0;
    {
        Tracer::Scope s(tracer, "harness.campaign", -1);
        harness::CampaignOptions opts;
        opts.jobs = 1;
        campaign.run(opts);
        campaignSeconds = s.stop();
    }

    Checks checks;
    std::string digestText;
    double instrMeasured = 0.0;
    uint64_t simCycles = 0;
    uint64_t cyclesExecuted = 0;
    uint64_t cyclesSkipped = 0;
    uint64_t demandReads = 0;
    uint64_t violations = 0;
    double readLatencySum = 0.0;
    double energyNj = 0.0;
    std::map<std::string, double> stats;
    for (size_t i = 0; i < runs.size(); ++i) {
        const harness::RunOutcome &o = campaign.outcome(i);
        const std::string &label = runs[i].label;
        if (!o.ok) {
            checks.expect(false, label + ": threw: " + o.error);
            digestText += "FAILED " + label + "\n";
            continue;
        }
        const harness::ExperimentResult &r = o.result;
        std::string problem;
        if (!r.simErrors.empty())
            problem = std::to_string(r.simErrors.size()) +
                      " sim errors, first: " + r.simErrors.front().message;
        else if (r.timingViolations != 0)
            problem = std::to_string(r.timingViolations) +
                      " timing violations";
        else if (r.illegalIssues != 0)
            problem = std::to_string(r.illegalIssues) + " illegal issues";
        checks.expect(problem.empty(), label + ": " + problem);
        digestText += harness::resultDigest(r);

        const Config &cfg = runs[i].cfg;
        const double cpuMeasured =
            static_cast<double>(cfg.getUint("sim.measure", 0)) *
            static_cast<double>(cfg.getUint("core.cpu_mult", 4));
        for (const double ipc : r.ipc)
            instrMeasured += std::round(ipc * cpuMeasured);
        simCycles += r.cyclesRun;
        cyclesExecuted += r.cyclesExecuted;
        cyclesSkipped += r.cyclesSkipped;
        demandReads += r.demandReads;
        violations += r.timingViolations;
        readLatencySum +=
            r.meanReadLatency * static_cast<double>(r.demandReads);
        energyNj += r.energy.totalNj();
        if (tracer.recording()) {
            addStatsDump(statsPath(static_cast<int>(i)), stats);
            // Stalls are counted over the whole run, so divide by all
            // CPU cycles the cores ran.
            stats["cpu_cycles"] +=
                static_cast<double>(r.cyclesRun) * r.ipc.size() *
                static_cast<double>(cfg.getUint("core.cpu_mult", 4));
        }
    }

    // Accuracy against the paper's Fig. 6 (figure_campaign only).
    double paperErr = std::numeric_limits<double>::quiet_NaN();
    if (args.workload == "figure_campaign" && checks.failures.empty()) {
        const size_t perProfile = 1 + kPaperFig6.size();
        const size_t profiles = runs.size() / perProfile;
        double errSum = 0.0;
        for (size_t s = 0; s < kPaperFig6.size(); ++s) {
            double rel = 0.0;
            for (size_t p = 0; p < profiles; ++p) {
                const auto &base = campaign.result(p * perProfile).ipc;
                const auto &r = campaign.result(p * perProfile + 1 + s);
                rel += r.weightedIpc(base) /
                       static_cast<double>(base.size());
            }
            rel /= static_cast<double>(profiles);
            errSum += std::fabs(rel - kPaperFig6[s].second);
        }
        paperErr = errSum / static_cast<double>(kPaperFig6.size());
    }

    // security_audit: decode, certify, verify.
    double analyzeSeconds = 0.0;
    double certifySeconds = 0.0;
    double verifySeconds = 0.0;
    uint64_t certRuns = 0;
    uint64_t leakWindows = 0;
    double openBer = std::numeric_limits<double>::quiet_NaN();
    if (args.workload == "security_audit") {
        for (size_t i = 0; i < kCovertPoints.size(); ++i) {
            const CovertPoint &pt = kCovertPoints[i];
            const harness::RunOutcome &o = campaign.outcome(i);
            if (!o.ok)
                continue;
            const auto params = leakage::ChannelParams::fromConfig(o.config);
            Tracer::Scope s(tracer, "leakage.analyze", static_cast<int>(i));
            const leakage::LeakageReport rep =
                leakage::analyzeLeakage(o.result.timelines.at(0), params);
            analyzeSeconds += s.stop();
            leakWindows += rep.windows;
            digestText += leakage::leakageDigest(rep);
            if (pt.expectOpen) {
                openBer = rep.mlVotedBer;
                checks.expect(rep.modelUsable && rep.mlVotedBer < 0.1 &&
                                  rep.mi.pluginBits > rep.mi.shuffleMaxBits,
                              std::string(pt.label) +
                                  ": expected OPEN with ML BER < 0.1, got " +
                                  rep.toString());
            } else {
                checks.expect(rep.mi.correctedBits < 0.05 &&
                                  rep.llrMi.correctedBits < 0.05 &&
                                  !rep.modelUsable &&
                                  rep.mlVotedBer == 0.5,
                              std::string(pt.label) +
                                  ": expected closed, model refused, "
                                  "BER 0.5, got " +
                                  rep.toString());
            }
        }

        std::vector<std::pair<std::string, analysis::CertifierConfig>>
            targets;
        for (const analysis::PaperCertPoint &p :
             analysis::paperCertPoints())
            targets.emplace_back(p.label, p.cfg);
        analysis::CertifierConfig frfcfs;
        frfcfs.scheme = analysis::CertScheme::FrFcfs;
        frfcfs.horizonFrames = 8;
        targets.emplace_back("frfcfs", frfcfs);
        for (const auto &[label, cfg] : targets) {
            const bool expectCert = cfg.scheme != analysis::CertScheme::FrFcfs;
            Tracer::Scope s(tracer, "analysis.certify", -1);
            const analysis::CertifyResult res =
                analysis::NoninterferenceCertifier(cfg).certify();
            certifySeconds += s.stop();
            certRuns += res.runsChecked;
            digestText += res.summary() + "\n";
            checks.expect(expectCert ? res.certified
                                     : !res.certified && res.hasWitness,
                          label + ": expected " +
                              (expectCert ? "certificate" : "witness") +
                              ", got " + res.summary());
        }

        // Minimal slot spacing per (partition, reference); the paper's
        // Table gaps are rank/data 7, rank/RAS 12, bank/RAS 15,
        // bank/data 21 and none/RAS 43.
        using core::PartitionLevel;
        using core::PeriodicRef;
        const std::map<std::pair<PartitionLevel, PeriodicRef>, unsigned>
            paperGaps = {{{PartitionLevel::Rank, PeriodicRef::Data}, 7},
                         {{PartitionLevel::Rank, PeriodicRef::Ras}, 12},
                         {{PartitionLevel::Bank, PeriodicRef::Ras}, 15},
                         {{PartitionLevel::Bank, PeriodicRef::Data}, 21},
                         {{PartitionLevel::None, PeriodicRef::Ras}, 43}};
        const dram::TimingParams tp = dram::TimingParams::ddr3_1600_4gb();
        std::string gaps;
        bool gapsOk = true;
        {
            Tracer::Scope s(tracer, "analysis.verify", -1);
            for (const PartitionLevel level :
                 {PartitionLevel::Rank, PartitionLevel::Bank,
                  PartitionLevel::None}) {
                for (const PeriodicRef ref :
                     {PeriodicRef::Data, PeriodicRef::Ras,
                      PeriodicRef::Cas}) {
                    analysis::VerifierConfig vcfg;
                    vcfg.level = level;
                    vcfg.ref = ref;
                    const unsigned l =
                        analysis::ScheduleVerifier(tp, vcfg)
                            .minimalFeasible();
                    gaps += std::string(core::partitionLevelName(level)) +
                            "/" + core::periodicRefName(ref) + "=" +
                            std::to_string(l) + " ";
                    const auto it = paperGaps.find({level, ref});
                    gapsOk = gapsOk && l > 0 &&
                             (it == paperGaps.end() || it->second == l);
                }
            }
            verifySeconds = s.stop();
        }
        digestText += gaps + "\n";
        checks.expect(gapsOk, "minimalFeasible: expected the paper's "
                              "7/12/15/21/43, got " +
                                  gaps);
    }

    // Construction without functional warmup, for the warmup's share.
    if (tracer.recording()) {
        for (size_t i = 0; i < runs.size(); ++i) {
            Config c = runs[i].cfg;
            c.set("core.functional_warmup", 0);
            Tracer::Scope s(tracer, "cpu.construct_nowarmup",
                            static_cast<int>(i));
            const harness::ExperimentSystem sys(c);
            times[i].constructNoWarmup = s.stop();
        }
    }

    probe.sample();
    workloadSpan.stop();
    double peakRssMb = probe.peakRssMb();
    if (peakRssMb < 0.0) {
        struct rusage usage = {};
        getrusage(RUSAGE_SELF, &usage);
        peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
    const double wall =
        std::chrono::duration<double>(Clock::now() - wallStart).count() -
        probe.overheadSeconds();

    RunTimes sum;
    for (const RunTimes &t : times) {
        sum.construct += t.construct;
        sum.warmupStep += t.warmupStep;
        sum.measureStep += t.measureStep;
        sum.finish += t.finish;
        sum.runner += t.runner;
        sum.constructNoWarmup += t.constructNoWarmup;
    }
    const double stepSeconds = sum.warmupStep + sum.measureStep;

    std::map<std::string, double> metrics = {
        {"wall_s", wall},
        {"setup_s", sum.construct},
        {"step_mcycles_per_s",
         ratio(static_cast<double>(simCycles), stepSeconds) / 1e6},
        {"sim_minstr_per_s", ratio(instrMeasured, sum.measureStep) / 1e6},
        {"peak_rss_mb", peakRssMb},
    };

    // Reported by every repetition: a traced one also writes stats.dump
    // inside finish(), so run.py takes this figure from untraced ones.
    std::map<std::string, double> layers = {
        {"harness.finish_s", sum.finish}};
    if (tracer.recording()) {
        auto st = [&](const char *key) {
            const auto it = stats.find(key);
            return it == stats.end() ? 0.0 : it->second;
        };
        const double bursts = st("mc.real_bursts") + st("mc.dummy_bursts");
        const double writes = st("mc.writes");
        const double reads = static_cast<double>(demandReads);
        const double rowHits = st("mc.sched.row_hits");
        layers.insert({
            {"harness.construct_s", sum.construct},
            {"harness.campaign_overhead_s", campaignSeconds - sum.runner},
            {"cpu.functional_warmup_s",
             sum.construct - sum.constructNoWarmup},
            {"cpu.instr_retired", instrMeasured},
            {"cpu.llc_miss_ratio",
             ratio(st("core.llc_misses"),
                   st("core.loads") + st("core.stores"))},
            {"cpu.rob_stall_frac",
             ratio(st("core.rob_stall_cycles"), st("cpu_cycles"))},
            {"cpu.host_ns_per_instr",
             ratio(sum.measureStep, instrMeasured) * 1e9},
            {"sim.warmup_step_s", sum.warmupStep},
            {"sim.measure_step_s", sum.measureStep},
            {"sim.cycles_executed", static_cast<double>(cyclesExecuted)},
            {"sim.skip_ratio",
             ratio(static_cast<double>(cyclesSkipped),
                   static_cast<double>(cyclesExecuted + cyclesSkipped))},
            {"sim.host_ns_per_executed_cycle",
             ratio(stepSeconds, static_cast<double>(cyclesExecuted)) *
                 1e9},
            {"mem.demand_reads", reads},
            {"mem.writes", writes},
            {"mem.read_latency_cycles", ratio(readLatencySum, reads)},
            {"mem.dummy_frac", ratio(st("mc.dummy_bursts"), bursts)},
            {"mem.host_ns_per_request",
             ratio(sum.measureStep, reads + writes) * 1e9},
            {"sched.row_hit_rate",
             ratio(rowHits, rowHits + st("mc.sched.row_misses"))},
            // TP counts the transactions it serves as "served".
            {"sched.real_ops",
             st("mc.sched.real_ops") + st("mc.sched.served")},
            {"sched.dummy_ops", st("mc.sched.dummy_ops")},
            {"sched.hazard_deferrals", st("mc.sched.hazard_deferrals")},
            {"sched.tp_idle_slots", st("mc.sched.idle_slots")},
            {"dram.bursts", bursts},
            {"dram.timing_violations", static_cast<double>(violations)},
            {"dram.energy_uj", energyNj / 1000.0},
            {"dram.host_ns_per_burst",
             ratio(sum.measureStep, bursts) * 1e9},
            {"analysis.certify_s", certifySeconds},
            {"analysis.certify_runs", static_cast<double>(certRuns)},
            {"analysis.host_ms_per_cert_run",
             ratio(certifySeconds, static_cast<double>(certRuns)) * 1e3},
            {"analysis.verify_s", verifySeconds},
            {"leakage.analyze_s", analyzeSeconds},
            {"leakage.windows", static_cast<double>(leakWindows)},
            {"leakage.ml_ber", std::isnan(openBer) ? 0.0 : openBer},
            {"paper_err", std::isnan(paperErr) ? 0.0 : paperErr},
        });
        if (!args.spans.empty())
            tracer.write(args.spans);
    }

    std::ostringstream out;
    out << "{\"workload\": " << jsonString(args.workload)
        << ", \"seed\": " << args.seed
        << ", \"traced\": " << (args.trace ? "true" : "false")
        << ", \"experiments\": " << runs.size()
        << ", \"attempted\": " << checks.attempted
        << ", \"failures\": [";
    for (size_t i = 0; i < checks.failures.size(); ++i)
        out << (i ? ", " : "") << jsonString(checks.failures[i]);
    out << "], \"digest\": " << jsonString(shortHash(digestText))
        << ", \"paper_err\": " << jsonNumber(paperErr)
        << ", \"probe_ms\": [";
    for (size_t i = 0; i < probe.samples().size(); ++i)
        out << (i ? ", " : "") << jsonNumber(probe.samples()[i] * 1e3);
    out << "]"
        << ", \"metrics\": {";
    const char *sep = "";
    for (const auto &[k, v] : metrics) {
        out << sep << jsonString(k) << ": " << jsonNumber(v);
        sep = ", ";
    }
    out << "}, \"layers\": {";
    sep = "";
    for (const auto &[k, v] : layers) {
        out << sep << jsonString(k) << ": " << jsonNumber(v);
        sep = ", ";
    }
    out << "}}\n";
    std::cout << out.str();
    return 0;
}
