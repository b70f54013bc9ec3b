#include "isolint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>

namespace memsec::isolint {

namespace {

/**
 * Replace comment bodies and string/char literal contents with
 * spaces, preserving line structure so reported line numbers match
 * the original file.
 */
std::string
stripCommentsAndStrings(const std::string &src)
{
    std::string out = src;
    enum class St { Code, Line, Block, Str, Chr };
    St st = St::Code;
    for (std::size_t i = 0; i < out.size(); ++i) {
        const char c = out[i];
        const char n = i + 1 < out.size() ? out[i + 1] : '\0';
        switch (st) {
          case St::Code:
            if (c == '/' && n == '/') {
                st = St::Line;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '/' && n == '*') {
                st = St::Block;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '"') {
                st = St::Str;
            } else if (c == '\'') {
                st = St::Chr;
            }
            break;
          case St::Line:
            if (c == '\n')
                st = St::Code;
            else
                out[i] = ' ';
            break;
          case St::Block:
            if (c == '*' && n == '/') {
                st = St::Code;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case St::Str:
            if (c == '\\' && n != '\0') {
                out[i] = ' ';
                if (n != '\n')
                    out[i + 1] = ' ';
                ++i;
            } else if (c == '"') {
                st = St::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case St::Chr:
            if (c == '\\' && n != '\0') {
                out[i] = ' ';
                if (n != '\n')
                    out[i + 1] = ' ';
                ++i;
            } else if (c == '\'') {
                st = St::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        }
    }
    return out;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (const char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        lines.push_back(cur);
    return lines;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

void
emit(std::vector<Finding> &out, const std::string &file, unsigned line,
     const char *rule, const std::string &rawLine)
{
    out.push_back(Finding{file, line, rule, trim(rawLine)});
}

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
ruleCrossDomainScan(const std::string &file,
                    const std::vector<std::string> &stripped,
                    const std::vector<std::string> &raw,
                    std::vector<Finding> &out)
{
    // Pass 1: names bound to the domain count anywhere in this
    // translation unit, so `for (d = 0; d < n; ++d)` counts too.
    std::vector<std::regex> headers = {kCountLoopNumDomains,
                                       kRangeForDomains};
    for (const std::string &l : stripped) {
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
    for (std::size_t i = 0; i < stripped.size(); ++i) {
        const std::string &l = stripped[i];
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
            emit(out, file, static_cast<unsigned>(i + 1),
                 "cross-domain-scan", raw[i]);
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
ruleOccupancyToTiming(const std::string &file,
                      const std::vector<std::string> &stripped,
                      const std::vector<std::string> &raw,
                      std::vector<Finding> &out)
{
    std::vector<std::string> tainted;
    for (const std::string &l : stripped) {
        std::smatch m;
        std::string rest = l;
        while (std::regex_search(rest, m, kOccupancyAssign)) {
            tainted.push_back(m[1].str());
            rest = m.suffix();
        }
    }
    if (tainted.empty())
        return;

    for (std::size_t i = 0; i < stripped.size(); ++i) {
        const std::string &l = stripped[i];
        if (!std::regex_search(l, kTimingSink))
            continue;
        for (const std::string &name : tainted) {
            const std::regex mention("\\b" + name + "\\b");
            if (std::regex_search(l, mention)) {
                emit(out, file, static_cast<unsigned>(i + 1),
                     "occupancy-to-timing", raw[i]);
                break;
            }
        }
    }
}

} // namespace

const std::vector<std::string> &
ruleNames()
{
    static const std::vector<std::string> names = {
        "cross-domain-scan", "occupancy-to-timing",
        "timing-perturbation"};
    return names;
}

std::string
Finding::toString() const
{
    std::ostringstream os;
    os << file << ":" << line << ": [" << rule << "] " << excerpt;
    return os.str();
}

Allowlist
Allowlist::fromString(const std::string &text)
{
    Allowlist al;
    unsigned lineNo = 0;
    for (const std::string &rawLine : splitLines(text + "\n")) {
        ++lineNo;
        const std::string full = trim(rawLine);
        if (full.empty() || full[0] == '#')
            continue;
        const std::size_t hash = full.find('#');
        if (hash == std::string::npos ||
            trim(full.substr(hash + 1)).empty()) {
            throw std::runtime_error(
                "allowlist line " + std::to_string(lineNo) +
                ": entry lacks a '# justification' comment");
        }
        const std::string spec = trim(full.substr(0, hash));
        const std::size_t c1 = spec.find(':');
        if (c1 == std::string::npos) {
            throw std::runtime_error(
                "allowlist line " + std::to_string(lineNo) +
                ": expected path:rule[:substring]");
        }
        Entry e;
        e.pathSuffix = trim(spec.substr(0, c1));
        const std::string rest = spec.substr(c1 + 1);
        const std::size_t c2 = rest.find(':');
        e.rule = trim(c2 == std::string::npos ? rest
                                              : rest.substr(0, c2));
        if (c2 != std::string::npos)
            e.substring = trim(rest.substr(c2 + 1));
        if (e.pathSuffix.empty() || e.rule.empty()) {
            throw std::runtime_error(
                "allowlist line " + std::to_string(lineNo) +
                ": empty path or rule");
        }
        if (e.rule != "*" &&
            std::find(ruleNames().begin(), ruleNames().end(),
                      e.rule) == ruleNames().end()) {
            throw std::runtime_error(
                "allowlist line " + std::to_string(lineNo) +
                ": unknown rule '" + e.rule + "'");
        }
        al.entries_.push_back(std::move(e));
    }
    return al;
}

Allowlist
Allowlist::fromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read allowlist: " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return fromString(ss.str());
}

bool
Allowlist::allows(const Finding &f) const
{
    for (const Entry &e : entries_) {
        if (!endsWith(f.file, e.pathSuffix))
            continue;
        if (e.rule != "*" && e.rule != f.rule)
            continue;
        if (!e.substring.empty() &&
            f.excerpt.find(e.substring) == std::string::npos)
            continue;
        return true;
    }
    return false;
}

std::vector<Finding>
lintSource(const std::string &file, const std::string &content)
{
    const std::string stripped = stripCommentsAndStrings(content);
    const std::vector<std::string> sl = splitLines(stripped);
    const std::vector<std::string> rl = splitLines(content);

    std::vector<Finding> out;
    ruleCrossDomainScan(file, sl, rl, out);
    ruleOccupancyToTiming(file, sl, rl, out);
    for (std::size_t i = 0; i < sl.size(); ++i) {
        if (std::regex_search(sl[i], kPerturbCall))
            emit(out, file, static_cast<unsigned>(i + 1),
                 "timing-perturbation", rl[i]);
    }

    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return out;
}

std::vector<Finding>
lintFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read file: " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return lintSource(path, ss.str());
}

std::vector<Finding>
lintTree(const std::string &root, const Allowlist &allow)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    for (auto it = fs::recursive_directory_iterator(root);
         it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_directory()) {
            const std::string name = it->path().filename().string();
            if (name == "build" || name == ".git" ||
                name.rfind("build-", 0) == 0 ||
                name.rfind("cmake-build", 0) == 0)
                it.disable_recursion_pending();
            continue;
        }
        const std::string ext = it->path().extension().string();
        if (ext == ".cc" || ext == ".cpp" || ext == ".hh" ||
            ext == ".h" || ext == ".hpp")
            files.push_back(it->path().string());
    }
    std::sort(files.begin(), files.end());

    std::vector<Finding> out;
    for (const std::string &f : files) {
        for (Finding &fd : lintFile(f)) {
            if (!allow.allows(fd))
                out.push_back(std::move(fd));
        }
    }
    return out;
}

} // namespace memsec::isolint
