/**
 * @file
 * Isolation lint: a source-level information-flow analyzer for the
 * scheduler sources.
 *
 * The dynamic proof layers (noninterference audit, leakage meter,
 * certifier) all check *behaviour*; isolint checks the *source*: a
 * secure scheduler's per-slot decisions must not read other domains'
 * state, because every such read is a potential channel from
 * co-runner demand into observer-visible timing. The linter taints
 * cross-domain state (per-domain transaction/prefetch queues swept
 * over all domains, and the controller's totals over them) as
 * sources and command-timing decisions as sinks, and flags the flows:
 *
 *   cross-domain-scan     a loop over every security domain (counting
 *                         loop bounded by numDomains(), or a range-for
 *                         over a domains collection) whose body reads
 *                         per-domain queue state, or any read of the
 *                         controller's queueTotals() (sums and bank
 *                         index over every domain's queue) — the
 *                         shapes of the FR-FCFS baseline's global pick
 *   occupancy-to-timing   an identifier assigned from a queue
 *                         occupancy read (.size()/.readCount()/
 *                         .writeCount()/.empty()) reaching a command
 *                         timing sink (actAt/casAt/turnEnd/...Skew) —
 *                         queue depth steering command cycles is the
 *                         exact leak the paper's fixed service closes
 *   timing-perturbation   a call to an injector hook that shifts
 *                         planned command cycles (slotSkew,
 *                         couplingSkew, driftTimings) — deliberate
 *                         leak hooks that may exist only where the
 *                         certifier provably refuses a certificate
 *
 * Like detlint, the analysis is deliberately lexical (comments and
 * strings stripped, then regex + light scope tracking), trading a few
 * false positives — suppressed via a checked-in allowlist whose every
 * entry carries a written justification — for zero build-system
 * dependencies. Every flow in src/sched is therefore either absent or
 * *argued*: the baseline is insecure by design, the power-down scan
 * is owner-gated, the injection hooks are certifier-refused. It runs
 * as a tier-1 ctest and a CI gate over src/sched.
 */

#ifndef MEMSEC_TOOLS_ISOLINT_ISOLINT_HH
#define MEMSEC_TOOLS_ISOLINT_ISOLINT_HH

#include <string>
#include <vector>

namespace memsec::isolint {

/** One information-flow hazard at a concrete source location. */
struct Finding
{
    std::string file;    ///< path as given to the linter
    unsigned line = 0;   ///< 1-based line number
    std::string rule;    ///< rule identifier (see file comment)
    std::string excerpt; ///< trimmed offending source line

    std::string toString() const;
};

/** Names of every rule isolint knows, for --list-rules and tests. */
const std::vector<std::string> &ruleNames();

/**
 * Checked-in suppression list, one entry per line:
 *
 *     path-suffix:rule[:substring]  # justification
 *
 * A finding is allowed when its file path ends with `path-suffix`,
 * its rule matches `rule` (or the entry's rule is `*`), and — when a
 * `substring` is given — the offending line contains it. The
 * justification comment is mandatory: an entry without one is a
 * format error, so a cross-domain flow can never be waved through
 * silently.
 */
class Allowlist
{
  public:
    Allowlist() = default;

    /** Parse allowlist text; throws std::runtime_error on bad entries. */
    static Allowlist fromString(const std::string &text);
    /** Load from a file; missing file throws std::runtime_error. */
    static Allowlist fromFile(const std::string &path);

    bool allows(const Finding &f) const;
    std::size_t size() const { return entries_.size(); }

  private:
    struct Entry
    {
        std::string pathSuffix;
        std::string rule; ///< "*" matches any rule
        std::string substring;
    };
    std::vector<Entry> entries_;
};

/** Lint one translation unit given as (display name, contents). */
std::vector<Finding> lintSource(const std::string &file,
                                const std::string &content);

/** Lint a file on disk; unreadable files throw std::runtime_error. */
std::vector<Finding> lintFile(const std::string &path);

/**
 * Recursively lint every C++ source under root (.cc/.cpp/.hh/.h/.hpp),
 * skipping build output directories. Findings the allowlist permits
 * are dropped. Results are sorted by (file, line) so the report
 * itself is deterministic.
 */
std::vector<Finding> lintTree(const std::string &root,
                              const Allowlist &allow);

} // namespace memsec::isolint

#endif // MEMSEC_TOOLS_ISOLINT_ISOLINT_HH
