#include "detlint.hh"

#include <algorithm>
#include <regex>

namespace memsec::detlint {

namespace {

using lint::Finding;

/** The sanctioned RNG wrapper is the one place raw engines belong. */
bool
isSanctionedRandomSource(const std::string &file)
{
    return file.find("util/random") != std::string::npos;
}

// --- individual rules -------------------------------------------------

const std::regex kUnorderedDecl(
    R"(\bunordered_(?:map|set|multimap|multiset)\s*<[^;{()]*>\s*([A-Za-z_]\w*)\s*(?:;|=|\{))");

void
ruleUnorderedIteration(const lint::Source &src, std::vector<Finding> &out)
{
    // Pass 1: names declared (locals or members) as unordered
    // containers anywhere in this translation unit.
    std::vector<std::string> names;
    for (const std::string &l : src.code) {
        auto begin =
            std::sregex_iterator(l.begin(), l.end(), kUnorderedDecl);
        for (auto it = begin; it != std::sregex_iterator(); ++it)
            names.push_back((*it)[1].str());
    }
    if (names.empty())
        return;

    // Pass 2: iteration over any of those names.
    for (std::size_t i = 0; i < src.code.size(); ++i) {
        const std::string &l = src.code[i];
        for (const std::string &name : names) {
            const std::regex rangeFor(
                R"(for\s*\([^)]*:\s*)" + name + R"(\s*\))");
            const std::regex beginCall(
                "\\b" + name + R"(\s*\.\s*(?:c?begin|c?end)\s*\()");
            if (std::regex_search(l, rangeFor) ||
                std::regex_search(l, beginCall)) {
                src.emit(out, i, "unordered-iteration");
                break;
            }
        }
    }
}

const std::regex kWallClock(
    R"(\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\(|\bgettimeofday\s*\(|\bclock_gettime\s*\()");

const std::regex kRawRandom(
    R"(\brand\s*\(\s*\)|\bsrand\s*\(|\brandom_device\b|\bmt19937(?:_64)?\b|\brandom_shuffle\b)");

const std::regex kPointerKeyedMap(
    R"(\b(?:unordered_)?(?:map|multimap)\s*<\s*[\w:]+(?:\s*<[^<>]*>)?\s*\*\s*,|\b(?:unordered_)?(?:set|multiset)\s*<\s*[\w:]+(?:\s*<[^<>]*>)?\s*\*\s*>)");

/**
 * Scalar member declaration with no initializer. Only checked when
 * the innermost open scope is a struct/class body (so locals and
 * parameters never match), and only for types whose indeterminate
 * value silently varies run to run.
 */
const std::regex kScalarMember(
    R"(^\s*(?:(?:unsigned|signed)(?:\s+(?:int|long|short|char))?|u?int(?:8|16|32|64)_t|size_t|std::size_t|ptrdiff_t|bool|int|long|short|float|double|char|Cycle|Tick|DomainId)\s+[A-Za-z_]\w*\s*;\s*$)");

const std::regex kStructHead(R"(\b(?:struct|class)\s+[A-Za-z_]\w*)");
const std::regex kEnumHead(R"(\benum\b)");

void
ruleUninitMember(const lint::Source &src, std::vector<Finding> &out)
{
    // Scope stack: true = struct/class body. A `struct X` sighting
    // arms the next `{`; a `;` before it (forward decl) disarms.
    std::vector<bool> scopes;
    bool pendingStruct = false;
    for (std::size_t i = 0; i < src.code.size(); ++i) {
        const std::string &l = src.code[i];
        const bool inStruct = !scopes.empty() && scopes.back();

        if (inStruct && l.find('{') == std::string::npos &&
            l.find('}') == std::string::npos &&
            std::regex_search(l, kScalarMember)) {
            src.emit(out, i, "uninit-member");
        }

        if (std::regex_search(l, kStructHead) &&
            !std::regex_search(l, kEnumHead))
            pendingStruct = true;
        for (const char c : l) {
            if (c == '{') {
                scopes.push_back(pendingStruct);
                pendingStruct = false;
            } else if (c == '}') {
                if (!scopes.empty())
                    scopes.pop_back();
            } else if (c == ';') {
                pendingStruct = false;
            }
        }
    }
}

/**
 * tick-wall-clock: a Component::tick override whose body touches a
 * value derived from the host's wall clock. The idle-skip kernel
 * makes this fatal rather than merely nondeterministic: tick() state
 * must be a function of the simulated cycle alone, or a fast-forward
 * jump (which never executes the skipped ticks) diverges from the
 * naive loop. Matched lexically: `tick(<cycle-type> ...)` opens a
 * tracked body; inside it, any direct clock call or any mention of
 * an identifier assigned from a clock anywhere in the translation
 * unit fires.
 */
const std::regex kTickDecl(
    R"(\btick\s*\(\s*(?:Cycle|uint64_t|unsigned|std::uint64_t)\b)");

const std::regex kClockAssign(
    R"(\b([A-Za-z_]\w*)\s*=[^=].*\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\(|\b([A-Za-z_]\w*)\s*=[^=].*\b(?:gettimeofday|clock_gettime)\s*\()");

void
ruleTickWallClock(const lint::Source &src, std::vector<Finding> &out)
{
    // Pass 1: identifiers assigned from a wall-clock read anywhere
    // in this translation unit (members or locals alike).
    std::vector<std::string> tainted;
    for (const std::string &l : src.code) {
        std::smatch m;
        std::string rest = l;
        while (std::regex_search(rest, m, kClockAssign)) {
            tainted.push_back(m[1].matched ? m[1].str() : m[2].str());
            rest = m.suffix();
        }
    }

    // Pass 2: scope-track tick() bodies, exactly like the
    // uninit-member walker tracks struct bodies.
    std::vector<bool> scopes; // true = inside a tick() body
    bool pendingTick = false;
    for (std::size_t i = 0; i < src.code.size(); ++i) {
        const std::string &l = src.code[i];
        const bool inTick =
            std::any_of(scopes.begin(), scopes.end(),
                        [](bool b) { return b; });

        if (inTick) {
            bool fired = false;
            if (std::regex_search(l, kWallClock)) {
                src.emit(out, i, "tick-wall-clock");
                fired = true;
            }
            for (const std::string &name : tainted) {
                if (fired)
                    break;
                const std::regex mention("\\b" + name + "\\b");
                if (std::regex_search(l, mention)) {
                    src.emit(out, i, "tick-wall-clock");
                    fired = true;
                }
            }
        }

        // A declaration (parameter has a type) arms the next `{`;
        // call sites like `c->tick(now)` never match kTickDecl.
        if (std::regex_search(l, kTickDecl))
            pendingTick = true;
        for (const char c : l) {
            if (c == '{') {
                scopes.push_back(pendingTick);
                pendingTick = false;
            } else if (c == '}') {
                if (!scopes.empty())
                    scopes.pop_back();
            } else if (c == ';') {
                pendingTick = false;
            }
        }
    }
}

void
check(const lint::Source &src, std::vector<Finding> &out)
{
    ruleUnorderedIteration(src, out);
    ruleTickWallClock(src, out);
    for (std::size_t i = 0; i < src.code.size(); ++i) {
        if (std::regex_search(src.code[i], kWallClock))
            src.emit(out, i, "wall-clock");
        if (!isSanctionedRandomSource(src.file) &&
            std::regex_search(src.code[i], kRawRandom))
            src.emit(out, i, "raw-random");
        if (std::regex_search(src.code[i], kPointerKeyedMap))
            src.emit(out, i, "pointer-keyed-map");
    }
    ruleUninitMember(src, out);
}

} // namespace

const lint::RuleSet &
ruleSet()
{
    static const lint::RuleSet rs{
        "detlint",
        {"unordered-iteration", "wall-clock", "raw-random",
         "pointer-keyed-map", "uninit-member", "tick-wall-clock"},
        check};
    return rs;
}

} // namespace memsec::detlint
