/**
 * @file
 * Parallel experiment campaign runner.
 *
 * A campaign is an ordered list of fully specified experiment
 * Configs. The runner executes them across N worker threads and
 * guarantees that the per-run results are byte-identical to a serial
 * run: every experiment constructs its own components and RNG streams
 * (isolation is per-Experiment construction, not locks), so the only
 * thing concurrency may change is wall-clock time. That determinism
 * is a security claim, not a convenience — the noninterference audit
 * is only meaningful if the runner cannot perturb a run's timeline —
 * and it is enforced by tests/test_campaign.cc.
 *
 * Runs sharing a canonical config fingerprint are executed once and
 * the result is shared (memoized), so figures re-sweeping the same
 * (scheme, workload, timing) point pay once per campaign.
 *
 * Failure semantics: an experiment that throws (panic() converts
 * invariant violations into exceptions) is recorded as a failed
 * RunOutcome without killing sibling runs; recoverable SimErrors
 * recorded by a run are aggregated into the campaign summary.
 * fatal() still exits the process — it means the campaign itself was
 * misconfigured.
 */

#ifndef MEMSEC_HARNESS_CAMPAIGN_HH
#define MEMSEC_HARNESS_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "sim/config.hh"

namespace memsec::harness {

/** How a campaign should execute. */
struct CampaignOptions
{
    /** Worker threads; <= 1 executes in submission order, serially. */
    unsigned jobs = 1;

    /** Stream per-run progress lines ("[3/42] fs_rp/mcf 1.2s"). */
    bool progress = false;

    /** Where progress lines go (defaults to stderr when null). */
    std::ostream *progressStream = nullptr;
};

/** What happened to one submitted run. */
struct RunOutcome
{
    std::string label;
    Config config;
    bool ok = false;
    /** True if this run shared an earlier run's execution. */
    bool memoized = false;
    /** True if the outcome was served from an on-disk journal entry
     *  (ckpt.dir) written by an earlier, possibly killed, campaign. */
    bool fromJournal = false;
    std::string error; ///< exception text when !ok
    double wallSeconds = 0.0;
    ExperimentResult result; ///< valid only when ok
};

/** Aggregate accounting for one executed campaign. */
struct CampaignSummary
{
    size_t runs = 0;     ///< submitted
    size_t executed = 0; ///< actually simulated (unique fingerprints)
    size_t memoHits = 0; ///< runs served from a sibling's execution
    size_t journalHits = 0; ///< runs served from the on-disk journal
    size_t snapshotResumes = 0; ///< executed runs resumed mid-flight
    size_t failures = 0; ///< runs whose experiment threw
    double wallSeconds = 0.0;   ///< whole-campaign wall clock
    double serialSeconds = 0.0; ///< sum of per-run wall clocks
    /** Recoverable SimErrors across all runs, by category. */
    std::map<std::string, uint64_t> simErrorsByCategory;
    uint64_t simErrors = 0;

    /** Human-readable one-paragraph accounting. */
    std::string toString() const;
};

/**
 * An ordered batch of experiments. add() all runs, run() once, then
 * read outcomes/results by submission index.
 */
class Campaign
{
  public:
    /** Executes one Config; swappable for testing. */
    using Runner = std::function<ExperimentResult(const Config &)>;

    /** A campaign over runExperiment(). */
    Campaign();

    /** A campaign over a custom runner (tests, dry runs). */
    explicit Campaign(Runner runner);

    /** Submit a run; returns its index. Rejected after run(). */
    size_t add(std::string label, Config cfg);

    size_t size() const { return outcomes_.size(); }

    /**
     * Execute every submitted run. Call at most once. Returns the
     * summary, which stays accessible via summary() afterwards.
     */
    const CampaignSummary &run(const CampaignOptions &opts = {});

    /** Outcome of run `idx` (valid after run()). */
    const RunOutcome &outcome(size_t idx) const;

    /** Result of run `idx`; fatal if the run failed. */
    const ExperimentResult &result(size_t idx) const;

    const CampaignSummary &summary() const { return summary_; }

    /**
     * Canonical fingerprint of a Config: stable across key insertion
     * order (keys are stored sorted) and over configSchema()'s static
     * defaults, so spelling out a default keeps the fingerprint. Runs
     * with equal fingerprints are executed once per campaign. Keys
     * declared non-digest (ckpt.*, crash.*) are dropped — they steer
     * checkpoint plumbing, not simulated behaviour, so a resumed rerun
     * with a different cadence still matches its journal entries.
     */
    static std::string fingerprint(const Config &cfg);

  private:
    void execute(size_t idx, const CampaignOptions &opts,
                 size_t *completed);
    void narrate(const CampaignOptions &opts, const std::string &line);

    Runner runner_;
    std::vector<RunOutcome> outcomes_;
    std::vector<std::string> fingerprints_; ///< parallel to outcomes_
    CampaignSummary summary_;
    bool ran_ = false;
};

/**
 * Canonical full-precision text digest of a result — every metric the
 * paper reports plus the captured noninterference timelines, with
 * doubles rendered in hexfloat so equality is bit-equality. Two runs
 * are byte-identical iff their digests compare equal; the campaign
 * determinism test is EXPECT_EQ over these.
 */
std::string resultDigest(const ExperimentResult &r);

} // namespace memsec::harness

#endif // MEMSEC_HARNESS_CAMPAIGN_HH
