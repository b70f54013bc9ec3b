#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace memsec::lint {

namespace {

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * End of the preprocessing number starting at `i`: digits, letters,
 * `.`, exponent signs, and `'` digit separators.
 */
std::size_t
numberEnd(const std::string &s, std::size_t i)
{
    while (++i < s.size()) {
        const char c = s[i];
        if (c == '\'' && i + 1 < s.size() && isIdentChar(s[i + 1]))
            ++i;
        else if ((c == '+' || c == '-') &&
                 std::string("eEpP").find(s[i - 1]) != std::string::npos)
            continue;
        else if (!isIdentChar(c) && c != '.')
            break;
    }
    return i;
}

/**
 * When the `"` at `i` opens a raw string (`R"delim(`, with an
 * optional L/u/U/u8 prefix), the `)delim"` that closes it; otherwise
 * the empty string.
 */
std::string
rawStringCloser(const std::string &s, std::size_t i)
{
    std::size_t b = i;
    while (b > 0 && isIdentChar(s[b - 1]))
        --b;
    const std::string prefix = s.substr(b, i - b);
    if (prefix != "R" && prefix != "LR" && prefix != "uR" &&
        prefix != "UR" && prefix != "u8R")
        return "";
    const std::size_t open = s.find('(', i + 1);
    if (open == std::string::npos)
        return "";
    const std::string delim = s.substr(i + 1, open - i - 1);
    if (delim.size() > 16 ||
        delim.find_first_of(" )\\\t\n") != std::string::npos)
        return "";
    return ")" + delim + "\"";
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

std::string
readFile(const std::string &path, const char *what)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error(std::string("cannot read ") + what +
                                 ": " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

std::string
stripCommentsAndStrings(const std::string &src)
{
    std::string out = src;
    enum class St { Code, Line, Block, Str, Chr, Raw };
    St st = St::Code;
    std::string rawCloser;
    for (std::size_t i = 0; i < out.size(); ++i) {
        const char c = out[i];
        const char n = i + 1 < out.size() ? out[i + 1] : '\0';
        switch (st) {
          case St::Code:
            if (std::isdigit(static_cast<unsigned char>(c)) &&
                (i == 0 || !isIdentChar(out[i - 1]))) {
                i = numberEnd(out, i) - 1;
            } else if (c == '/' && n == '/') {
                st = St::Line;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '/' && n == '*') {
                st = St::Block;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '"') {
                rawCloser = rawStringCloser(out, i);
                st = rawCloser.empty() ? St::Str : St::Raw;
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
          case St::Raw:
            if (out.compare(i, rawCloser.size(), rawCloser) == 0) {
                std::fill_n(out.begin() + i, rawCloser.size() - 1, ' ');
                i += rawCloser.size() - 1;
                st = St::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case St::Str:
          case St::Chr:
            if (c == '\\' && n != '\0') {
                out[i] = ' ';
                if (n != '\n')
                    out[i + 1] = ' ';
                ++i;
            } else if (c == (st == St::Str ? '"' : '\'')) {
                st = St::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        }
    }
    return out;
}

std::string
Finding::toString() const
{
    std::ostringstream os;
    os << file << ":" << line << ": [" << rule << "] " << excerpt;
    return os.str();
}

void
Source::emit(std::vector<Finding> &out, std::size_t i,
             const char *rule) const
{
    out.push_back(Finding{file, static_cast<unsigned>(i + 1), rule,
                          trim(raw[i])});
}

Allowlist
Allowlist::fromString(const std::string &text,
                      const std::vector<std::string> &rules)
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
            std::find(rules.begin(), rules.end(), e.rule) ==
                rules.end()) {
            throw std::runtime_error(
                "allowlist line " + std::to_string(lineNo) +
                ": unknown rule '" + e.rule + "'");
        }
        al.entries_.push_back(std::move(e));
    }
    return al;
}

Allowlist
Allowlist::fromFile(const std::string &path,
                    const std::vector<std::string> &rules)
{
    return fromString(readFile(path, "allowlist"), rules);
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
lintSource(const RuleSet &rs, const std::string &file,
           const std::string &content)
{
    const Source src{file, splitLines(stripCommentsAndStrings(content)),
                     splitLines(content)};
    std::vector<Finding> out;
    rs.check(src, out);
    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return out;
}

std::vector<Finding>
lintFile(const RuleSet &rs, const std::string &path)
{
    return lintSource(rs, path, readFile(path, "file"));
}

std::vector<Finding>
lintTree(const RuleSet &rs, const std::string &root,
         const Allowlist &allow)
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
        for (Finding &fd : lintFile(rs, f)) {
            if (!allow.allows(fd))
                out.push_back(std::move(fd));
        }
    }
    return out;
}

int
runCli(const RuleSet &rs, int argc, char **argv)
{
    const std::string tool = rs.tool;
    const std::string usage =
        "usage: " + tool + " [--allowlist FILE] [--list-rules] PATH...\n";
    std::string allowPath;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--allowlist") {
            if (i + 1 >= argc) {
                std::cerr << tool << ": --allowlist needs a file\n";
                return 2;
            }
            allowPath = argv[++i];
        } else if (arg == "--list-rules") {
            for (const std::string &r : rs.rules)
                std::cout << r << "\n";
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << usage;
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << tool << ": unknown option " << arg << "\n";
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty()) {
        std::cerr << usage;
        return 2;
    }

    try {
        Allowlist allow;
        if (!allowPath.empty())
            allow = Allowlist::fromFile(allowPath, rs.rules);

        std::vector<Finding> findings;
        for (const std::string &p : paths) {
            if (std::filesystem::is_directory(p)) {
                for (Finding &f : lintTree(rs, p, allow))
                    findings.push_back(std::move(f));
            } else {
                for (Finding &f : lintFile(rs, p)) {
                    if (!allow.allows(f))
                        findings.push_back(std::move(f));
                }
            }
        }

        for (const Finding &f : findings)
            std::cout << f.toString() << "\n";
        if (findings.empty()) {
            std::cout << tool << ": clean ("
                      << (allow.size() ? "with" : "no")
                      << " allowlist)\n";
            return 0;
        }
        std::cout << tool << ": " << findings.size() << " finding(s)\n";
        return 1;
    } catch (const std::exception &e) {
        std::cerr << tool << ": " << e.what() << "\n";
        return 2;
    }
}

} // namespace memsec::lint
