/**
 * @file
 * Each detlint rule must fire on a minimal synthetic reproduction,
 * stay quiet on the deterministic equivalent, and honour the
 * allowlist — including the mandatory-justification format. The last
 * test runs the real linter over the real src/ tree with the real
 * checked-in allowlist: the tier-1 suite itself enforces the
 * determinism gate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "detlint.hh"

using namespace memsec::detlint;

namespace {

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
    const auto fs = lintSource("x.cc", src);
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
    EXPECT_TRUE(hasRule(lintSource("x.hh", src),
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
    EXPECT_FALSE(hasRule(lintSource("x.cc", src),
                         "unordered-iteration"));
}

TEST(Detlint, OrderedMapIterationIsClean)
{
    const std::string src = R"(
std::map<int, int> m;
void f() { for (const auto &kv : m) use(kv); }
)";
    EXPECT_FALSE(hasRule(lintSource("x.cc", src),
                         "unordered-iteration"));
}

TEST(Detlint, WallClockFlagsChronoNow)
{
    const std::string src =
        "auto t = std::chrono::steady_clock::now();\n";
    const auto fs = lintSource("x.cc", src);
    ASSERT_TRUE(hasRule(fs, "wall-clock"));
    EXPECT_EQ(lineOf(fs, "wall-clock"), 1u);
}

TEST(Detlint, WallClockFlagsPosixClocks)
{
    EXPECT_TRUE(hasRule(
        lintSource("x.cc", "gettimeofday(&tv, nullptr);\n"),
        "wall-clock"));
    EXPECT_TRUE(hasRule(
        lintSource("x.cc", "clock_gettime(CLOCK_MONOTONIC, &ts);\n"),
        "wall-clock"));
}

TEST(Detlint, RawRandomFlagsEnginesOutsideWrapper)
{
    EXPECT_TRUE(
        hasRule(lintSource("src/sched/foo.cc", "int x = rand();\n"),
                "raw-random"));
    EXPECT_TRUE(hasRule(lintSource("src/sched/foo.cc",
                                   "std::random_device rd;\n"),
                        "raw-random"));
    EXPECT_TRUE(hasRule(lintSource("src/sched/foo.cc",
                                   "std::mt19937_64 gen(42);\n"),
                        "raw-random"));
}

TEST(Detlint, RawRandomSanctionedInUtilRandom)
{
    // The seeded wrapper is the one legitimate home for raw engines.
    EXPECT_FALSE(hasRule(lintSource("src/util/random.cc",
                                    "std::mt19937_64 gen_;\n"),
                         "raw-random"));
}

TEST(Detlint, PointerKeyedMapFlagsMapAndSet)
{
    EXPECT_TRUE(hasRule(
        lintSource("x.hh", "std::map<Request *, int> inflight;\n"),
        "pointer-keyed-map"));
    EXPECT_TRUE(hasRule(
        lintSource("x.hh",
                   "std::unordered_map<Node *, Info> info;\n"),
        "pointer-keyed-map"));
    EXPECT_TRUE(
        hasRule(lintSource("x.hh", "std::set<Bank *> busy;\n"),
                "pointer-keyed-map"));
    // Pointer as VALUE is fine: ordering comes from the key.
    EXPECT_FALSE(hasRule(
        lintSource("x.hh", "std::map<int, Request *> byId;\n"),
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
    const auto fs = lintSource("x.hh", src);
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
    EXPECT_FALSE(hasRule(lintSource("x.hh", src), "uninit-member"));
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
    const auto fs = lintSource("x.cc", src);
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
    const auto fs = lintSource("x.cc", src);
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
    EXPECT_FALSE(hasRule(lintSource("x.cc", src), "tick-wall-clock"));
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
    const auto fs = lintSource("x.cc", src);
    EXPECT_TRUE(hasRule(fs, "wall-clock"));
    EXPECT_FALSE(hasRule(fs, "tick-wall-clock"));
}

TEST(Detlint, CommentsAndStringsNeverFire)
{
    const std::string src = R"(
// for (auto &kv : someUnorderedThing) — prose, not code
/* std::chrono::steady_clock::now() in a block comment */
const char *msg = "rand() inside a string literal";
)";
    EXPECT_TRUE(lintSource("x.cc", src).empty());
}

TEST(Detlint, FindingsSortedAndFormatted)
{
    const std::string src = "int a = rand();\n"
                            "auto t = std::chrono::steady_clock::now();\n";
    const auto fs = lintSource("x.cc", src);
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_LE(fs[0].line, fs[1].line);
    EXPECT_NE(fs[0].toString().find("x.cc:1: [raw-random]"),
              std::string::npos);
}

// ---- Allowlist semantics. ----

TEST(DetlintAllowlist, SuppressesByPathRuleAndSubstring)
{
    const Allowlist al = Allowlist::fromString(
        "harness/campaign.cc:wall-clock:steady_clock  # narration\n");
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

TEST(DetlintAllowlist, WildcardRuleAndCommentsAndBlanks)
{
    const Allowlist al = Allowlist::fromString(
        "# header comment\n"
        "\n"
        "legacy/gen.cc:*  # generated file, exempt wholesale\n");
    EXPECT_EQ(al.size(), 1u);
    EXPECT_TRUE(al.allows(
        Finding{"x/legacy/gen.cc", 1, "raw-random", "rand()"}));
    EXPECT_TRUE(al.allows(
        Finding{"x/legacy/gen.cc", 2, "wall-clock", "now()"}));
}

TEST(DetlintAllowlist, JustificationIsMandatory)
{
    EXPECT_THROW(Allowlist::fromString("a.cc:wall-clock\n"),
                 std::runtime_error);
    EXPECT_THROW(Allowlist::fromString("a.cc:wall-clock   #   \n"),
                 std::runtime_error);
}

TEST(DetlintAllowlist, UnknownRuleRejected)
{
    EXPECT_THROW(
        Allowlist::fromString("a.cc:no-such-rule  # oops\n"),
        std::runtime_error);
}

TEST(DetlintAllowlist, MalformedEntryRejected)
{
    EXPECT_THROW(Allowlist::fromString("just-a-path  # why\n"),
                 std::runtime_error);
}

// ---- The real gate: src/ is clean under the checked-in allowlist. ----

TEST(DetlintGate, SourceTreeCleanUnderCheckedInAllowlist)
{
    const std::string root = MEMSEC_SOURCE_DIR;
    const Allowlist al =
        Allowlist::fromFile(root + "/tools/detlint/allowlist.txt");
    const auto fs = lintTree(root + "/src", al);
    for (const Finding &f : fs)
        ADD_FAILURE() << f.toString();
    EXPECT_TRUE(fs.empty());
}

TEST(DetlintGate, AllowlistEntriesAreLoadBearing)
{
    // Every checked-in entry must suppress something in the trees the
    // detlint_src ctest gates: with that one entry removed there must
    // be more findings than with the full list. Otherwise the entry
    // is stale (its file or line is gone) and should be deleted.
    const std::string root = MEMSEC_SOURCE_DIR;
    const std::string path = root + "/tools/detlint/allowlist.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    auto withoutLine = [&](std::size_t skip) {
        std::string text;
        for (std::size_t i = 0; i < lines.size(); ++i)
            if (i != skip)
                text += lines[i] + "\n";
        return Allowlist::fromString(text);
    };
    auto findings = [&](const Allowlist &al) {
        std::size_t n = 0;
        for (const char *dir : {"/src", "/bench", "/tools"})
            n += lintTree(root + dir, al).size();
        return n;
    };

    const Allowlist full = Allowlist::fromFile(path);
    const std::size_t fullFindings = findings(full);
    std::size_t entries = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::size_t start = lines[i].find_first_not_of(" \t");
        if (start == std::string::npos || lines[i][start] == '#')
            continue;
        ++entries;
        EXPECT_GT(findings(withoutLine(i)), fullFindings)
            << "stale allowlist entry: " << lines[i];
    }
    EXPECT_EQ(entries, full.size());
    EXPECT_GT(entries, 0u);
}
