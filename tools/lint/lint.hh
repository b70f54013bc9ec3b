/**
 * @file
 * The scanner, allowlist and CLI shared by the repo's source linters
 * (detlint, isolint). A linter is a RuleSet: its executable name,
 * its rule names and one function that applies its rules to a
 * scanned translation unit. Everything else lives here once.
 *
 * The analysis is deliberately lexical: comments and string/char
 * literal contents are blanked, then the rules run regexes and light
 * scope tracking over the lines. That trades a few false positives —
 * suppressed via a checked-in allowlist whose every entry carries a
 * written justification — for zero build-system or compiler-plugin
 * dependencies. The library links nothing from the simulator, so the
 * linters can lint a broken tree.
 */

#ifndef MEMSEC_TOOLS_LINT_LINT_HH
#define MEMSEC_TOOLS_LINT_LINT_HH

#include <cstddef>
#include <string>
#include <vector>

namespace memsec::lint {

/** One hazard at a concrete source location. */
struct Finding
{
    std::string file;    ///< path as given to the linter
    unsigned line = 0;   ///< 1-based line number
    std::string rule;    ///< rule identifier
    std::string excerpt; ///< trimmed offending source line

    std::string toString() const;
};

/**
 * One translation unit as the rules see it. `code` is the text with
 * comment bodies and literal contents replaced by spaces; `raw` is
 * the text as written. Both are split into lines and index-aligned:
 * code[i] and raw[i] are line i + 1.
 */
struct Source
{
    std::string file;
    std::vector<std::string> code;
    std::vector<std::string> raw;

    /** Record a finding of `rule` on the line at index `i`. */
    void emit(std::vector<Finding> &out, std::size_t i,
              const char *rule) const;
};

/** A linter: what the shared scanner, allowlist and CLI need. */
struct RuleSet
{
    const char *tool = ""; ///< executable name; prefixes its output
    std::vector<std::string> rules; ///< every rule name, for --list-rules
    /** Append every finding in `src`; lintSource sorts them. */
    void (*check)(const Source &src, std::vector<Finding> &out) =
        nullptr;
};

/**
 * Replace comment bodies and string/char literal contents (raw
 * strings included) with spaces, preserving line structure so that
 * reported line numbers match the original file. Digit separators
 * (`1'000`) are part of their number, not a char literal.
 */
std::string stripCommentsAndStrings(const std::string &src);

/**
 * Checked-in suppression list. One entry per line:
 *
 *     path-suffix:rule[:substring]  # justification
 *
 * A finding is allowed when its file path ends with `path-suffix`,
 * its rule matches `rule` (or the entry's rule is `*`), and — when a
 * `substring` is given — the offending line contains it. The
 * justification comment is mandatory: an entry without one is a
 * format error, so suppressions cannot be added silently. An entry
 * naming a rule outside the linter's own rules is an error too.
 */
class Allowlist
{
  public:
    Allowlist() = default;

    /** Parse allowlist text; throws std::runtime_error on bad entries. */
    static Allowlist fromString(const std::string &text,
                                const std::vector<std::string> &rules);
    /** Load from a file; missing file throws std::runtime_error. */
    static Allowlist fromFile(const std::string &path,
                              const std::vector<std::string> &rules);

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

/**
 * Lint one translation unit given as (display name, contents).
 * Findings are sorted by (line, rule).
 */
std::vector<Finding> lintSource(const RuleSet &rs,
                                const std::string &file,
                                const std::string &content);

/** Lint a file on disk; unreadable files throw std::runtime_error. */
std::vector<Finding> lintFile(const RuleSet &rs, const std::string &path);

/**
 * Recursively lint every C++ source under root (.cc/.cpp/.hh/.h/.hpp),
 * skipping build output directories. Findings the allowlist permits
 * are dropped. Results are sorted by (file, line) so the report
 * itself is deterministic.
 */
std::vector<Finding> lintTree(const RuleSet &rs, const std::string &root,
                              const Allowlist &allow);

/**
 * The linter CLI:
 *
 *     TOOL [--allowlist FILE] [--list-rules] PATH...
 *
 * Each PATH is a file or a directory (recursed). Exit status is 0
 * when no unsuppressed finding exists, 1 when findings were printed,
 * 2 on usage or I/O errors — so it gates both ctest and CI directly.
 */
int runCli(const RuleSet &rs, int argc, char **argv);

} // namespace memsec::lint

#endif // MEMSEC_TOOLS_LINT_LINT_HH
