#include "harness/campaign.hh"

#include <chrono>
#include <exception>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>

#include "util/logging.hh"
#include "util/serialize.hh"
#include "util/thread_pool.hh"

namespace memsec::harness {

namespace {

// Progress lines from concurrent workers are each written as one
// complete string under this lock so they never interleave.
std::mutex narrateMutex;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

uint64_t
fnv1a64(const std::string &s)
{
    uint64_t h = 0xCBF29CE484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    return h;
}

// The canonical identity of a run: its config with the static defaults
// filled in, minus the non-digest keys (checkpoint cadence, crash-dump
// routing), which affect how a run persists, never what it computes.
std::string
canonicalConfigString(const Config &cfg)
{
    Config canon = withDefaults(cfg, configSchema());
    for (const ConfigKey &k : configSchema()) {
        if (!k.digest)
            canon.erase(k.name);
    }
    return canon.toString();
}

} // namespace

std::string
CampaignSummary::toString() const
{
    std::ostringstream os;
    os << "campaign: " << runs << " runs, " << executed << " executed, "
       << memoHits << " memo hits, " << journalHits
       << " journal hits, " << snapshotResumes << " snapshot resumes, "
       << failures << " failed; wall " << std::fixed
       << std::setprecision(2) << wallSeconds
       << "s (serial-equivalent " << serialSeconds << "s)";
    if (simErrors > 0) {
        os << "; " << simErrors << " recoverable sim errors (";
        bool first = true;
        for (const auto &kv : simErrorsByCategory) {
            os << (first ? "" : ", ") << kv.first << "=" << kv.second;
            first = false;
        }
        os << ")";
    }
    return os.str();
}

Campaign::Campaign() : runner_(runExperiment) {}

Campaign::Campaign(Runner runner) : runner_(std::move(runner))
{
    panic_if(!runner_, "campaign runner must be callable");
}

size_t
Campaign::add(std::string label, Config cfg)
{
    panic_if(ran_, "cannot add runs to an executed campaign");
    RunOutcome o;
    o.label = std::move(label);
    o.config = std::move(cfg);
    fingerprints_.push_back(canonicalConfigString(o.config));
    outcomes_.push_back(std::move(o));
    return outcomes_.size() - 1;
}

void
Campaign::narrate(const CampaignOptions &opts, const std::string &line)
{
    if (!opts.progress)
        return;
    std::ostream &os =
        opts.progressStream ? *opts.progressStream : std::cerr;
    std::lock_guard<std::mutex> lock(narrateMutex);
    os << line << std::flush;
}

void
Campaign::execute(size_t idx, const CampaignOptions &opts,
                  size_t *completed)
{
    RunOutcome &o = outcomes_[idx];
    const auto start = std::chrono::steady_clock::now();

    // Journal resume: a prior (possibly killed) campaign with the
    // same ckpt.dir already completed this fingerprint — serve the
    // persisted result instead of re-simulating. Stale or corrupt
    // entries are warned about and ignored; the run then executes
    // normally.
    const std::string journalDir = o.config.getString("ckpt.dir");
    std::string journalPath;
    std::string fp;
    if (!journalDir.empty()) {
        ensureDirectory(journalDir);
        fp = fingerprint(o.config);
        journalPath = journalDir + "/" + fp + ".done";
        std::string bytes;
        if (readFileBytes(journalPath, bytes)) {
            try {
                const std::string payload = decodeSnapshot(bytes, fp);
                Deserializer d(payload);
                ExperimentResult r = deserializeResult(d);
                if (!d.atEnd())
                    d.fail("trailing bytes after the result record");
                o.result = std::move(r);
                o.ok = true;
                o.fromJournal = true;
            } catch (const SerializeError &e) {
                warn("journal entry {} ignored ({}); re-executing run",
                     journalPath, e.toString());
            }
        }
    }

    if (!o.fromJournal) {
        try {
            o.result = runner_(o.config);
            o.ok = true;
        } catch (const std::exception &e) {
            o.error = e.what();
        } catch (...) {
            o.error = "unknown exception";
        }
        // Persist the outcome atomically so a killed rerun skips this
        // fingerprint. Only successful runs are journalled: failures
        // should re-execute (and re-fail loudly) on resume.
        if (o.ok && !journalPath.empty()) {
            Serializer s;
            serializeResult(s, o.result);
            writeFileAtomic(journalPath, encodeSnapshot(fp, s.data()));
        }
    }
    o.wallSeconds = secondsSince(start);

    size_t done;
    {
        std::lock_guard<std::mutex> lock(narrateMutex);
        done = ++*completed;
    }
    std::ostringstream line;
    line << "  [" << done << "/" << summary_.executed << "] " << o.label
         << " " << std::fixed << std::setprecision(1) << o.wallSeconds
         << "s" << (o.fromJournal ? " (journal)" : "")
         << (o.result.resumedFromSnapshot ? " (resumed)" : "")
         << (o.ok ? "" : " FAILED: " + o.error) << "\n";
    narrate(opts, line.str());
}

const CampaignSummary &
Campaign::run(const CampaignOptions &opts)
{
    panic_if(ran_, "campaign already executed");
    ran_ = true;

    // First submission of each canonical config executes; later ones
    // share its outcome.
    std::map<std::string, size_t> primaryOf;
    std::vector<size_t> primaries;
    std::vector<size_t> shareFrom(outcomes_.size());
    for (size_t i = 0; i < outcomes_.size(); ++i) {
        auto [it, fresh] = primaryOf.emplace(fingerprints_[i], i);
        if (fresh)
            primaries.push_back(i);
        shareFrom[i] = it->second;
    }

    summary_.runs = outcomes_.size();
    summary_.executed = primaries.size();
    summary_.memoHits = outcomes_.size() - primaries.size();

    const auto start = std::chrono::steady_clock::now();
    size_t completed = 0;
    if (opts.jobs <= 1) {
        for (size_t idx : primaries)
            execute(idx, opts, &completed);
    } else {
        ThreadPool pool(opts.jobs);
        for (size_t idx : primaries) {
            pool.submit(
                [this, idx, &opts, &completed] {
                    // execute() catches everything an experiment can
                    // throw, so nothing escapes into the pool.
                    execute(idx, opts, &completed);
                });
        }
        pool.wait();
    }
    summary_.wallSeconds = secondsSince(start);

    for (size_t i = 0; i < outcomes_.size(); ++i) {
        const size_t src = shareFrom[i];
        if (src != i) {
            const RunOutcome &from = outcomes_[src];
            RunOutcome &to = outcomes_[i];
            to.ok = from.ok;
            to.error = from.error;
            to.result = from.result;
            to.memoized = true;
            to.wallSeconds = 0.0;
        }
    }
    for (size_t idx : primaries) {
        const RunOutcome &o = outcomes_[idx];
        summary_.serialSeconds += o.wallSeconds;
        if (o.fromJournal)
            ++summary_.journalHits;
        if (!o.ok) {
            ++summary_.failures;
            continue;
        }
        if (o.result.resumedFromSnapshot)
            ++summary_.snapshotResumes;
        for (const SimError &e : o.result.simErrors) {
            ++summary_.simErrors;
            ++summary_.simErrorsByCategory[e.category];
        }
    }
    // Failures of memoized runs count once per submitted run: the
    // caller asked for that many results and did not get them.
    for (size_t i = 0; i < outcomes_.size(); ++i) {
        if (shareFrom[i] != i && !outcomes_[i].ok)
            ++summary_.failures;
    }
    return summary_;
}

const RunOutcome &
Campaign::outcome(size_t idx) const
{
    panic_if(!ran_, "campaign not executed yet");
    panic_if(idx >= outcomes_.size(), "run index out of range");
    return outcomes_[idx];
}

const ExperimentResult &
Campaign::result(size_t idx) const
{
    const RunOutcome &o = outcome(idx);
    fatal_if(!o.ok, "campaign run '{}' failed: {}", o.label, o.error);
    return o.result;
}

std::string
Campaign::fingerprint(const Config &cfg)
{
    std::ostringstream os;
    os << "fnv64-" << std::hex << std::setw(16) << std::setfill('0')
       << fnv1a64(canonicalConfigString(cfg));
    return os.str();
}

std::string
resultDigest(const ExperimentResult &r)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << "scheme=" << r.scheme << "\nworkload=" << r.workload
       << "\ncores=" << r.cores << "\ncycles=" << r.cyclesRun << "\n";
    os << "ipc=";
    for (double v : r.ipc)
        os << v << ",";
    os << "\nreadLatency=" << r.meanReadLatency
       << "\nbandwidth=" << r.effectiveBandwidth
       << "\ndummyFraction=" << r.dummyFraction
       << "\nrowHitRate=" << r.rowHitRate << "\n";
    os << "energy=" << r.energy.backgroundNj << ","
       << r.energy.activateNj << "," << r.energy.readWriteNj << ","
       << r.energy.refreshNj << "\n";
    os << "prefetch=" << r.prefetchIssued << "/" << r.prefetchUseful
       << " demand=" << r.demandReads << "\n";
    for (size_t t = 0; t < r.timelines.size(); ++t) {
        const auto &tl = r.timelines[t];
        os << "timeline[" << t << "].service=";
        for (const auto &ev : tl.service) {
            os << ev.ordinal << ":" << ev.arrival << ":"
               << ev.completed << ";";
        }
        os << "\ntimeline[" << t << "].progress=";
        for (uint64_t p : tl.progress)
            os << p << ";";
        os << "\n";
    }
    os << "faults=" << r.faultsInjected << " violations="
       << r.timingViolations << " illegal=" << r.illegalIssues << "\n";
    for (const auto &kv : r.violationRules)
        os << "rule." << kv.first << "=" << kv.second << "\n";
    for (const auto &e : r.simErrors) {
        os << "simError@" << e.cycle << " " << e.category << ": "
           << e.message << "\n";
    }
    // Per-domain latency distributions, sparsely (only occupied
    // bins). Deliberately independent of shards/effectiveChannels:
    // the digest must be byte-identical across serial and sharded
    // runs and across an explicit vs. harness-widened geometry.
    for (size_t dIdx = 0; dIdx < r.domainReadLatency.size(); ++dIdx) {
        const auto &h = r.domainReadLatency[dIdx];
        os << "domainLatency[" << dIdx << "]=" << h.totalSamples()
           << ":" << h.underflow() << ":" << h.overflow() << ":"
           << h.total() << ":";
        const auto &bins = h.bins();
        for (size_t b = 0; b < bins.size(); ++b) {
            if (bins[b])
                os << b << ":" << bins[b] << ";";
        }
        os << "\n";
    }
    return os.str();
}

} // namespace memsec::harness
