/**
 * @file
 * Each detlint rule must fire on a minimal synthetic reproduction and
 * stay quiet on the deterministic equivalent. This file also tests,
 * once, the scanner and allowlist that detlint shares with isolint
 * (tools/lint): literals never fire, findings are sorted and
 * formatted, and the allowlist grammar holds. The gate tests run the
 * real linter over the real src/ tree with the real checked-in
 * allowlist, and check that every entry of both linters' allowlists
 * still suppresses something.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "detlint.hh"
#include "isolint.hh"

using namespace memsec;
using namespace memsec::lint;

namespace {

std::vector<Finding>
check(const std::string &file, const std::string &src)
{
    return lintSource(detlint::ruleSet(), file, src);
}

const std::vector<std::string> &
detRules()
{
    return detlint::ruleSet().rules;
}

bool
hasRule(const std::vector<Finding> &fs, const std::string &rule)
{
    return std::any_of(fs.begin(), fs.end(), [&](const Finding &f) {
        return f.rule == rule;
    });
}

unsigned
lineOf(const std::vector<Finding> &fs, const std::string &rule)
{
    for (const Finding &f : fs)
        if (f.rule == rule)
            return f.line;
    return 0;
}

} // namespace

TEST(Detlint, UnorderedIterationFlagsRangeFor)
{
    const std::string src = R"(#include <unordered_map>
void f() {
    std::unordered_map<int, int> m;
    for (const auto &kv : m)
        use(kv);
}
)";
    const auto fs = check("x.cc", src);
    ASSERT_TRUE(hasRule(fs, "unordered-iteration"));
    EXPECT_EQ(lineOf(fs, "unordered-iteration"), 4u);
}

TEST(Detlint, UnorderedIterationFlagsBeginCall)
{
    const std::string src = R"(
struct S {
    std::unordered_set<int> live_;
    void dump() { emit(live_.begin(), live_.end()); }
};
)";
    EXPECT_TRUE(hasRule(check("x.hh", src),
                        "unordered-iteration"));
}

TEST(Detlint, UnorderedLookupWithoutIterationIsClean)
{
    // Lookup and insertion are order-independent; only iteration is
    // hash-seed dependent.
    const std::string src = R"(
std::unordered_map<int, int> m;
void f() { m[3] = 4; if (m.count(5)) m.erase(5); }
)";
    EXPECT_FALSE(hasRule(check("x.cc", src),
                         "unordered-iteration"));
}

TEST(Detlint, OrderedMapIterationIsClean)
{
    const std::string src = R"(
std::map<int, int> m;
void f() { for (const auto &kv : m) use(kv); }
)";
    EXPECT_FALSE(hasRule(check("x.cc", src),
                         "unordered-iteration"));
}

TEST(Detlint, WallClockFlagsChronoNow)
{
    const std::string src =
        "auto t = std::chrono::steady_clock::now();\n";
    const auto fs = check("x.cc", src);
    ASSERT_TRUE(hasRule(fs, "wall-clock"));
    EXPECT_EQ(lineOf(fs, "wall-clock"), 1u);
}

TEST(Detlint, WallClockFlagsPosixClocks)
{
    EXPECT_TRUE(hasRule(
        check("x.cc", "gettimeofday(&tv, nullptr);\n"),
        "wall-clock"));
    EXPECT_TRUE(hasRule(
        check("x.cc", "clock_gettime(CLOCK_MONOTONIC, &ts);\n"),
        "wall-clock"));
}

TEST(Detlint, RawRandomFlagsEnginesOutsideWrapper)
{
    EXPECT_TRUE(
        hasRule(check("src/sched/foo.cc", "int x = rand();\n"),
                "raw-random"));
    EXPECT_TRUE(hasRule(check("src/sched/foo.cc",
                              "std::random_device rd;\n"),
                        "raw-random"));
    EXPECT_TRUE(hasRule(check("src/sched/foo.cc",
                              "std::mt19937_64 gen(42);\n"),
                        "raw-random"));
}

TEST(Detlint, RawRandomSanctionedInUtilRandom)
{
    // The seeded wrapper is the one legitimate home for raw engines.
    EXPECT_FALSE(hasRule(check("src/util/random.cc",
                               "std::mt19937_64 gen_;\n"),
                         "raw-random"));
}

TEST(Detlint, PointerKeyedMapFlagsMapAndSet)
{
    EXPECT_TRUE(hasRule(
        check("x.hh", "std::map<Request *, int> inflight;\n"),
        "pointer-keyed-map"));
    EXPECT_TRUE(hasRule(
        check("x.hh", "std::unordered_map<Node *, Info> info;\n"),
        "pointer-keyed-map"));
    EXPECT_TRUE(
        hasRule(check("x.hh", "std::set<Bank *> busy;\n"),
                "pointer-keyed-map"));
    // Pointer as VALUE is fine: ordering comes from the key.
    EXPECT_FALSE(hasRule(
        check("x.hh", "std::map<int, Request *> byId;\n"),
        "pointer-keyed-map"));
}

TEST(Detlint, UninitMemberFlagsBareScalarInStruct)
{
    const std::string src = R"(
struct SlotState {
    unsigned l;
    Cycle at = 0;
    bool write;
};
)";
    const auto fs = check("x.hh", src);
    ASSERT_TRUE(hasRule(fs, "uninit-member"));
    EXPECT_EQ(std::count_if(fs.begin(), fs.end(),
                            [](const Finding &f) {
                                return f.rule == "uninit-member";
                            }),
              2);
}

TEST(Detlint, UninitMemberIgnoresLocalsAndInitialized)
{
    const std::string src = R"(
struct S {
    unsigned a = 0;
    void f() {
        unsigned local;
        use(local);
    }
};
unsigned fileScope;
)";
    EXPECT_FALSE(hasRule(check("x.hh", src), "uninit-member"));
}

TEST(Detlint, TickWallClockFlagsDirectClockInTickBody)
{
    const std::string src = R"(
struct C : Component {
    void tick(Cycle now) override {
        start_ = std::chrono::steady_clock::now();
    }
};
)";
    const auto fs = check("x.cc", src);
    EXPECT_TRUE(hasRule(fs, "tick-wall-clock"));
    EXPECT_EQ(lineOf(fs, "tick-wall-clock"), 4u);
}

TEST(Detlint, TickWallClockFlagsDerivedValueInTickBody)
{
    // The clock read happens elsewhere; tick() keys state on the
    // derived value. The skipped-tick contract makes this a bug even
    // when the clock call itself lives outside tick().
    const std::string src = R"(
void C::setup() {
    wallStart = std::chrono::steady_clock::now();
}
void C::tick(Cycle now) {
    budget_ = wallStart + grace_;
}
)";
    const auto fs = check("x.cc", src);
    EXPECT_TRUE(hasRule(fs, "tick-wall-clock"));
    EXPECT_EQ(lineOf(fs, "tick-wall-clock"), 6u);
}

TEST(Detlint, TickWallClockIgnoresCleanTickAndCallSites)
{
    // A tick body keyed purely on the simulated cycle is clean, and
    // `c->tick(now)` call sites must not open a tracked body.
    const std::string src = R"(
void C::tick(Cycle now) {
    if (now % l_ == 0)
        issueSlot(now);
}
void Simulator::step() {
    for (Component *c : components_)
        c->tick(now_);
}
)";
    EXPECT_FALSE(hasRule(check("x.cc", src), "tick-wall-clock"));
}

TEST(Detlint, TickWallClockOutsideTickIsOnlyWallClock)
{
    // Clock use outside any tick body stays the generic wall-clock
    // finding; the tick-specific rule must not fire.
    const std::string src = R"(
void report() {
    auto t = std::chrono::steady_clock::now();
}
)";
    const auto fs = check("x.cc", src);
    EXPECT_TRUE(hasRule(fs, "wall-clock"));
    EXPECT_FALSE(hasRule(fs, "tick-wall-clock"));
}

TEST(Detlint, DigitSeparatorAndRawStringDoNotHideLaterFindings)
{
    for (const std::string head :
         {"constexpr int k = 1'000;\n", "const char *s = R\"(a\"b)\";\n"}) {
        const std::string src = head + "void f()\n"
                                       "{\n"
                                       "    auto t = std::chrono::"
                                       "steady_clock::now();\n"
                                       "}\n";
        const auto fs = check("x.cc", src);
        ASSERT_TRUE(hasRule(fs, "wall-clock")) << head;
        EXPECT_EQ(lineOf(fs, "wall-clock"), 4u);
    }
}

// ---- The shared scanner (tools/lint), over detlint's rules. ----

TEST(Lint, CommentsAndStringsNeverFire)
{
    const std::string src = R"(
// for (auto &kv : someUnorderedThing) — prose, not code
/* std::chrono::steady_clock::now() in a block comment */
const char *msg = "rand() inside a string literal";
)";
    EXPECT_TRUE(check("x.cc", src).empty());
}

TEST(Lint, FindingsSortedAndFormatted)
{
    const std::string src = "int a = rand();\n"
                            "auto t = std::chrono::steady_clock::now();\n";
    const auto fs = check("x.cc", src);
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_LE(fs[0].line, fs[1].line);
    EXPECT_NE(fs[0].toString().find("x.cc:1: [raw-random]"),
              std::string::npos);
}

TEST(Lint, DigitSeparatorIsNotACharLiteral)
{
    // A separator once opened a char literal, so an odd count of them
    // blanked the rest of the file. u8'a' is still a char literal.
    EXPECT_EQ(stripCommentsAndStrings("int k = 1'000, h = 0xF'F;\n"
                                      "auto c = u8'a';\n"),
              "int k = 1'000, h = 0xF'F;\n"
              "auto c = u8' ';\n");
}

TEST(Lint, RawStringEndsAtItsDelimiter)
{
    // A quote inside a raw string once closed it, so an odd count of
    // them blanked the rest of the file.
    EXPECT_EQ(stripCommentsAndStrings("s = R\"(a\"b)\"; rand();\n"),
              "s = R\"     \"; rand();\n");
    EXPECT_EQ(stripCommentsAndStrings("s = R\"x(a)\"\nb)x\"; t;\n"),
              "s = R\"     \n   \"; t;\n");
}

// ---- The shared allowlist grammar. ----

TEST(LintAllowlist, SuppressesByPathRuleAndSubstring)
{
    const Allowlist al = Allowlist::fromString(
        "harness/campaign.cc:wall-clock:steady_clock  # narration\n",
        detRules());
    Finding hit{"/repo/src/harness/campaign.cc", 97, "wall-clock",
                "auto t = std::chrono::steady_clock::now();"};
    EXPECT_TRUE(al.allows(hit));

    Finding wrongRule = hit;
    wrongRule.rule = "raw-random";
    EXPECT_FALSE(al.allows(wrongRule));

    Finding wrongFile = hit;
    wrongFile.file = "/repo/src/sched/fs.cc";
    EXPECT_FALSE(al.allows(wrongFile));

    Finding wrongLine = hit;
    wrongLine.excerpt = "gettimeofday(&tv, nullptr);";
    EXPECT_FALSE(al.allows(wrongLine));
}

TEST(LintAllowlist, WildcardRuleAndCommentsAndBlanks)
{
    const Allowlist al = Allowlist::fromString(
        "# header comment\n"
        "\n"
        "legacy/gen.cc:*  # generated file, exempt wholesale\n",
        detRules());
    EXPECT_EQ(al.size(), 1u);
    EXPECT_TRUE(al.allows(
        Finding{"x/legacy/gen.cc", 1, "raw-random", "rand()"}));
    EXPECT_TRUE(al.allows(
        Finding{"x/legacy/gen.cc", 2, "wall-clock", "now()"}));
}

TEST(LintAllowlist, JustificationIsMandatory)
{
    EXPECT_THROW(Allowlist::fromString("a.cc:wall-clock\n", detRules()),
                 std::runtime_error);
    EXPECT_THROW(
        Allowlist::fromString("a.cc:wall-clock   #   \n", detRules()),
        std::runtime_error);
}

TEST(LintAllowlist, UnknownRuleRejected)
{
    EXPECT_THROW(
        Allowlist::fromString("a.cc:no-such-rule  # oops\n", detRules()),
        std::runtime_error);
    // Rules are checked against the calling linter's own set: a
    // detlint rule is unknown to isolint.
    EXPECT_THROW(Allowlist::fromString("a.cc:wall-clock  # why\n",
                                       isolint::ruleSet().rules),
                 std::runtime_error);
}

TEST(LintAllowlist, MalformedEntryRejected)
{
    EXPECT_THROW(Allowlist::fromString("just-a-path  # why\n", detRules()),
                 std::runtime_error);
}

// ---- The real gates. ----

TEST(DetlintGate, SourceTreeCleanUnderCheckedInAllowlist)
{
    const std::string root = MEMSEC_SOURCE_DIR;
    const Allowlist al = Allowlist::fromFile(
        root + "/tools/detlint/allowlist.txt", detRules());
    const auto fs = lintTree(detlint::ruleSet(), root + "/src", al);
    for (const Finding &f : fs)
        ADD_FAILURE() << f.toString();
    EXPECT_TRUE(fs.empty());
}

namespace {

/**
 * Every entry of `rs`'s checked-in allowlist must suppress something
 * in the trees its ctest gates: with that one entry removed there
 * must be more findings than with the full list. Otherwise the entry
 * is stale (its file or line is gone) and should be deleted.
 */
void
expectEntriesLoadBearing(const RuleSet &rs, const std::string &allowlist,
                         const std::vector<std::string> &dirs)
{
    const std::string root = MEMSEC_SOURCE_DIR;
    const std::string path = root + allowlist;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    auto withoutLine = [&](std::size_t skip) {
        std::string text;
        for (std::size_t i = 0; i < lines.size(); ++i)
            if (i != skip)
                text += lines[i] + "\n";
        return Allowlist::fromString(text, rs.rules);
    };
    auto findings = [&](const Allowlist &al) {
        std::size_t n = 0;
        for (const std::string &dir : dirs)
            n += lintTree(rs, root + dir, al).size();
        return n;
    };

    const Allowlist full = Allowlist::fromFile(path, rs.rules);
    const std::size_t fullFindings = findings(full);
    std::size_t entries = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::size_t start = lines[i].find_first_not_of(" \t");
        if (start == std::string::npos || lines[i][start] == '#')
            continue;
        ++entries;
        EXPECT_GT(findings(withoutLine(i)), fullFindings)
            << "stale " << rs.tool << " allowlist entry: " << lines[i];
    }
    EXPECT_EQ(entries, full.size());
    EXPECT_GT(entries, 0u);
}

} // namespace

TEST(LintGate, AllowlistEntriesAreLoadBearing)
{
    expectEntriesLoadBearing(detlint::ruleSet(),
                             "/tools/detlint/allowlist.txt",
                             {"/src", "/bench", "/tools"});
    expectEntriesLoadBearing(isolint::ruleSet(),
                             "/tools/isolint/allowlist.txt",
                             {"/src/sched"});
}
