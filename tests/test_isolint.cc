/**
 * @file
 * Each isolint information-flow rule must fire on a minimal synthetic
 * reproduction, stay quiet on the isolation-safe equivalent, and
 * honour the allowlist's mandatory-justification format. The gate
 * tests then run the real linter over the real src/sched tree with
 * the real checked-in allowlist: the tier-1 suite itself enforces
 * that every cross-domain flow in the schedulers is argued.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "isolint.hh"

using namespace memsec::isolint;

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

TEST(Isolint, CrossDomainScanFlagsNumDomainsLoop)
{
    const std::string src = R"(
void S::pick() {
    for (DomainId d = 0; d < mc_.numDomains(); ++d) {
        total += mc_.queue(d).size();
    }
}
)";
    const auto fs = lintSource("x.cc", src);
    ASSERT_TRUE(hasRule(fs, "cross-domain-scan"));
    EXPECT_EQ(lineOf(fs, "cross-domain-scan"), 4u);
}

TEST(Isolint, CrossDomainScanFlagsRangeForOverDomains)
{
    const std::string src = R"(
void S::wake() {
    for (DomainId d : allDomains_)
        if (!mc_.queue(d).empty())
            return;
}
)";
    EXPECT_TRUE(hasRule(lintSource("x.cc", src), "cross-domain-scan"));
}

TEST(Isolint, CrossDomainScanFlagsLoopOverBoundName)
{
    // The domain count laundered through a local must still count as
    // a domain loop.
    const std::string src = R"(
void S::survey() {
    const unsigned n = mc_.numDomains();
    for (DomainId d = 0; d < n; ++d) {
        const MemRequest *head = mc_.queue(d).head();
        use(head);
    }
}
)";
    const auto fs = lintSource("x.cc", src);
    ASSERT_TRUE(hasRule(fs, "cross-domain-scan"));
    EXPECT_EQ(lineOf(fs, "cross-domain-scan"), 5u);
}

TEST(Isolint, CrossDomainScanFlagsPrefetchQueue)
{
    const std::string src = R"(
void S::sweep() {
    for (DomainId d = 0; d < mc_.numDomains(); ++d) {
        for (const auto &p : mc_.prefetchQueue(d))
            use(p);
    }
}
)";
    EXPECT_TRUE(hasRule(lintSource("x.cc", src), "cross-domain-scan"));
}

TEST(Isolint, CrossDomainScanFlagsQueueTotalsReadWithoutALoop)
{
    // The controller's totals sum every domain's queue (and index all
    // of their requests by bank): one read is a cross-domain read.
    const std::string src = R"(
void S::decideSlot(DomainId domain) {
    const mem::QueueTotals &t = mc_.queueTotals();
    if (t.writes > kHighWatermark)
        drain_ = true;
}
)";
    const auto fs = lintSource("x.cc", src);
    ASSERT_TRUE(hasRule(fs, "cross-domain-scan"));
    EXPECT_EQ(lineOf(fs, "cross-domain-scan"), 3u);
    EXPECT_EQ(fs.size(), 1u);
}

TEST(Isolint, OwnDomainAccessIsClean)
{
    // Reading only the deciding slot's own queue is the secure
    // pattern: no domain loop, no finding.
    const std::string src = R"(
void S::decideSlot(DomainId domain) {
    mem::TransactionQueue &q = mc_.queue(domain);
    if (!q.empty())
        issue(q.take());
}
)";
    EXPECT_FALSE(hasRule(lintSource("x.cc", src),
                         "cross-domain-scan"));
}

TEST(Isolint, NonDomainLoopWithQueueIsClean)
{
    // A loop over something other than the domain set (here: retry
    // attempts) touching the caller's own queue must not fire.
    const std::string src = R"(
void S::retry(DomainId domain) {
    for (unsigned i = 0; i < kMaxRetries; ++i) {
        if (mc_.queue(domain).full())
            break;
    }
}
)";
    EXPECT_FALSE(hasRule(lintSource("x.cc", src),
                         "cross-domain-scan"));
}

TEST(Isolint, DomainLoopWithoutQueueReadIsClean)
{
    // Iterating the domain set for bookkeeping (slot table fill) is
    // fine as long as no per-domain demand state is read.
    const std::string src = R"(
S::S(mem::MemoryController &mc) {
    for (DomainId d = 0; d < mc.numDomains(); ++d)
        slotTable_.push_back(d);
}
)";
    EXPECT_FALSE(hasRule(lintSource("x.cc", src),
                         "cross-domain-scan"));
}

TEST(Isolint, OccupancyToTimingFlagsTaintedSink)
{
    const std::string src = R"(
void S::plan(Op &op) {
    uint64_t foreign = 0;
    for (DomainId d = 0; d < mc_.numDomains(); ++d)
        foreign += mc_.queue(d).size();
    op.actAt += injector_->couplingSkew(op.actAt, foreign);
}
)";
    const auto fs = lintSource("x.cc", src);
    ASSERT_TRUE(hasRule(fs, "occupancy-to-timing"));
    EXPECT_EQ(lineOf(fs, "occupancy-to-timing"), 6u);
}

TEST(Isolint, OccupancyWithoutTimingSinkIsClean)
{
    // Occupancy feeding statistics (not command cycles) is fine.
    const std::string src = R"(
void S::stats() {
    const uint64_t depth = mc_.queue(0).size();
    stats_.maxDepth = std::max(stats_.maxDepth, depth);
}
)";
    EXPECT_FALSE(hasRule(lintSource("x.cc", src),
                         "occupancy-to-timing"));
}

TEST(Isolint, TimingSinkWithoutTaintIsClean)
{
    // Command cycles computed from the fixed schedule alone.
    const std::string src = R"(
void S::plan(Op &op, uint64_t slot) {
    op.actAt = slot * params_.l;
    op.casAt = op.actAt + tRCD;
}
)";
    EXPECT_FALSE(hasRule(lintSource("x.cc", src),
                         "occupancy-to-timing"));
}

TEST(Isolint, TimingPerturbationFlagsInjectorHooks)
{
    const auto fs = lintSource(
        "x.cc", "op.actAt += injector_->slotSkew(op.actAt);\n");
    ASSERT_TRUE(hasRule(fs, "timing-perturbation"));
    EXPECT_EQ(lineOf(fs, "timing-perturbation"), 1u);
    EXPECT_TRUE(hasRule(
        lintSource("x.cc", "skew = injector_->couplingSkew(t, b);\n"),
        "timing-perturbation"));
}

TEST(Isolint, CommentsAndStringsNeverFire)
{
    const std::string src = R"(
// for (DomainId d = 0; d < mc_.numDomains(); ++d) — prose
/* foreign += mc_.queue(d).size(); in a block comment */
const char *msg = "slotSkew( inside a string literal";
)";
    EXPECT_TRUE(lintSource("x.cc", src).empty());
}

TEST(Isolint, FindingsSortedAndFormatted)
{
    const std::string src =
        "a = injector_->slotSkew(t);\n"
        "b = injector_->couplingSkew(t, n);\n";
    const auto fs = lintSource("x.cc", src);
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_LE(fs[0].line, fs[1].line);
    EXPECT_NE(fs[0].toString().find("x.cc:1: [timing-perturbation]"),
              std::string::npos);
}

// ---- Allowlist semantics. ----

TEST(IsolintAllowlist, SuppressesByPathRuleAndSubstring)
{
    const Allowlist al = Allowlist::fromString(
        "sched/frfcfs.cc:cross-domain-scan:queue(d)  # baseline\n");
    Finding hit{"/repo/src/sched/frfcfs.cc", 102, "cross-domain-scan",
                "const mem::TransactionQueue &q = mc_.queue(d);"};
    EXPECT_TRUE(al.allows(hit));

    Finding wrongRule = hit;
    wrongRule.rule = "occupancy-to-timing";
    EXPECT_FALSE(al.allows(wrongRule));

    Finding wrongFile = hit;
    wrongFile.file = "/repo/src/sched/fs.cc";
    EXPECT_FALSE(al.allows(wrongFile));

    Finding wrongExcerpt = hit;
    wrongExcerpt.excerpt = "slotTable_.push_back(d);";
    EXPECT_FALSE(al.allows(wrongExcerpt));
}

TEST(IsolintAllowlist, JustificationIsMandatory)
{
    EXPECT_THROW(
        Allowlist::fromString("a.cc:cross-domain-scan\n"),
        std::runtime_error);
    EXPECT_THROW(
        Allowlist::fromString("a.cc:cross-domain-scan   #  \n"),
        std::runtime_error);
}

TEST(IsolintAllowlist, UnknownRuleRejected)
{
    EXPECT_THROW(
        Allowlist::fromString("a.cc:no-such-rule  # oops\n"),
        std::runtime_error);
}

// ---- The real gate: src/sched is argued flow-by-flow. ----

TEST(IsolintGate, SchedTreeCleanUnderCheckedInAllowlist)
{
    const std::string root = MEMSEC_SOURCE_DIR;
    const Allowlist al =
        Allowlist::fromFile(root + "/tools/isolint/allowlist.txt");
    const auto fs = lintTree(root + "/src/sched", al);
    for (const Finding &f : fs)
        ADD_FAILURE() << f.toString();
    EXPECT_TRUE(fs.empty());
}

TEST(IsolintGate, AllowlistEntriesAreLoadBearing)
{
    // Every checked-in entry must suppress something in src/sched:
    // with that one entry removed there must be more findings than
    // with the full list. Otherwise the entry is stale (its file or
    // flow is gone) and should be deleted.
    const std::string root = MEMSEC_SOURCE_DIR;
    const std::string path = root + "/tools/isolint/allowlist.txt";
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
        return lintTree(root + "/src/sched", al).size();
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

TEST(IsolintGate, SchedulersFlowWithoutAllowlist)
{
    // Without the allowlist the schedulers must NOT be clean: the
    // FR-FCFS baseline's global scan is a real, documented flow.
    const std::string root = MEMSEC_SOURCE_DIR;
    const auto fs = lintTree(root + "/src/sched", Allowlist());
    EXPECT_FALSE(fs.empty());
    EXPECT_TRUE(hasRule(fs, "cross-domain-scan"));
    EXPECT_TRUE(hasRule(fs, "timing-perturbation"));
    EXPECT_TRUE(hasRule(fs, "occupancy-to-timing"));
    // The baseline specifically must be among the flagged files.
    EXPECT_TRUE(std::any_of(fs.begin(), fs.end(), [](const Finding &f) {
        return f.file.find("frfcfs.cc") != std::string::npos &&
               f.rule == "cross-domain-scan";
    }));
}
