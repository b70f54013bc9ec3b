#include "isolint.hh"

#include <algorithm>
#include <regex>

namespace memsec::isolint {

namespace {

using lint::Finding;

// --- sources and sinks ------------------------------------------------

/** Per-domain queue state: the only cross-domain-readable secret. */
const std::regex kQueueRead(R"(\b(?:queue|prefetchQueue)\s*\()");

/**
 * The controller's state over every domain's queue (running sums and
 * the bank index): a cross-domain read wherever it happens, loop or
 * no loop.
 */
const std::regex kTotalsRead(R"(\bqueueTotals\s*\()");

/** Identifier bound to the domain count, e.g. `n = mc_.numDomains()`. */
const std::regex kDomainCountAssign(
    R"(\b([A-Za-z_]\w*)\s*=\s*[^=;]*\bnumDomains\s*\(\s*\))");

/** Counting loop whose condition consults the domain count directly. */
const std::regex kCountLoopNumDomains(
    R"(for\s*\([^;)]*;[^;]*\bnumDomains\s*\(\s*\)[^;]*;)");

/** Range-for over a domains collection (`domains`, `allDomains_`...). */
const std::regex kRangeForDomains(
    R"(for\s*\([^:;)]*:[^);]*[Dd]omains[^);]*\))");

/**
 * Identifier fed from a queue occupancy read. Both plain and
 * accumulating assignment; `(?!=)` keeps `==` comparisons out.
 */
const std::regex kOccupancyAssign(
    R"(\b([A-Za-z_]\w*)\s*(?:\+=|=(?!=))\s*[^;=]*\b(?:queue|prefetchQueue)\s*\([^)]*\)\s*\.\s*(?:size|empty|full|readCount|writeCount)\s*\()");

/**
 * Command-timing sinks: planned command cycles and the injector
 * hooks that shift them.
 */
const std::regex kTimingSink(
    R"(\b(?:actAt|casAt|dataAt|issueAt|turnEnd)\b|\b\w*Skew\s*\()");

/** Injector hooks that perturb planned command timing. */
const std::regex kPerturbCall(
    R"(\b(?:slotSkew|couplingSkew)\s*\()");

/**
 * cross-domain-scan: queue-state reads lexically inside a loop over
 * every security domain, and any read of the controller-wide queue
 * totals. The loop header arms the next `{` (or the next statement,
 * for brace-less bodies); semicolons inside the for header itself are
 * skipped by tracking parenthesis depth.
 */
void
ruleCrossDomainScan(const lint::Source &src, std::vector<Finding> &out)
{
    // Pass 1: names bound to the domain count anywhere in this
    // translation unit, so `for (d = 0; d < n; ++d)` counts too.
    std::vector<std::regex> headers = {kCountLoopNumDomains,
                                       kRangeForDomains};
    for (const std::string &l : src.code) {
        std::smatch m;
        std::string rest = l;
        while (std::regex_search(rest, m, kDomainCountAssign)) {
            headers.emplace_back(R"(for\s*\([^;)]*;[^;]*\b)" +
                                 m[1].str() + R"(\b[^;]*;)");
            rest = m.suffix();
        }
    }

    // Pass 2: scope-track domain-loop bodies.
    std::vector<bool> scopes; // true = inside a domain loop body
    bool pendingLoop = false;
    int parenDepth = 0;
    for (std::size_t i = 0; i < src.code.size(); ++i) {
        const std::string &l = src.code[i];
        const bool inLoop =
            std::any_of(scopes.begin(), scopes.end(),
                        [](bool b) { return b; });
        for (const std::regex &h : headers) {
            if (std::regex_search(l, h)) {
                pendingLoop = true;
                break;
            }
        }

        if (((inLoop || pendingLoop) &&
             std::regex_search(l, kQueueRead)) ||
            std::regex_search(l, kTotalsRead)) {
            src.emit(out, i, "cross-domain-scan");
        }

        for (const char c : l) {
            if (c == '(') {
                ++parenDepth;
            } else if (c == ')') {
                if (parenDepth > 0)
                    --parenDepth;
            } else if (c == '{') {
                scopes.push_back(pendingLoop);
                pendingLoop = false;
            } else if (c == '}') {
                if (!scopes.empty())
                    scopes.pop_back();
            } else if (c == ';' && parenDepth == 0) {
                // End of a brace-less loop body (for-header
                // semicolons sit at parenDepth > 0 and don't disarm).
                pendingLoop = false;
            }
        }
    }
}

/**
 * occupancy-to-timing: an identifier assigned from a queue occupancy
 * read, later mentioned on a line that also touches a command-timing
 * sink. Taint is translation-unit-wide, like detlint's
 * tick-wall-clock rule.
 */
void
ruleOccupancyToTiming(const lint::Source &src, std::vector<Finding> &out)
{
    std::vector<std::string> tainted;
    for (const std::string &l : src.code) {
        std::smatch m;
        std::string rest = l;
        while (std::regex_search(rest, m, kOccupancyAssign)) {
            tainted.push_back(m[1].str());
            rest = m.suffix();
        }
    }
    if (tainted.empty())
        return;

    for (std::size_t i = 0; i < src.code.size(); ++i) {
        const std::string &l = src.code[i];
        if (!std::regex_search(l, kTimingSink))
            continue;
        for (const std::string &name : tainted) {
            const std::regex mention("\\b" + name + "\\b");
            if (std::regex_search(l, mention)) {
                src.emit(out, i, "occupancy-to-timing");
                break;
            }
        }
    }
}

void
check(const lint::Source &src, std::vector<Finding> &out)
{
    ruleCrossDomainScan(src, out);
    ruleOccupancyToTiming(src, out);
    for (std::size_t i = 0; i < src.code.size(); ++i) {
        if (std::regex_search(src.code[i], kPerturbCall))
            src.emit(out, i, "timing-perturbation");
    }
}

} // namespace

const lint::RuleSet &
ruleSet()
{
    static const lint::RuleSet rs{
        "isolint",
        {"cross-domain-scan", "occupancy-to-timing",
         "timing-perturbation"},
        check};
    return rs;
}

} // namespace memsec::isolint
