/**
 * @file
 * Each isolint information-flow rule must fire on a minimal synthetic
 * reproduction and stay quiet on the isolation-safe equivalent. The
 * gate tests then run the real linter over the real src/sched tree
 * with the real checked-in allowlist: the tier-1 suite itself
 * enforces that every cross-domain flow in the schedulers is argued.
 * The scanner and allowlist shared with detlint are tested once, in
 * test_detlint.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "isolint.hh"

using namespace memsec;
using namespace memsec::lint;

namespace {

std::vector<Finding>
check(const std::string &file, const std::string &src)
{
    return lintSource(isolint::ruleSet(), file, src);
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

TEST(Isolint, CrossDomainScanFlagsNumDomainsLoop)
{
    const std::string src = R"(
void S::pick() {
    for (DomainId d = 0; d < mc_.numDomains(); ++d) {
        total += mc_.queue(d).size();
    }
}
)";
    const auto fs = check("x.cc", src);
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
    EXPECT_TRUE(hasRule(check("x.cc", src), "cross-domain-scan"));
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
    const auto fs = check("x.cc", src);
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
    EXPECT_TRUE(hasRule(check("x.cc", src), "cross-domain-scan"));
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
    const auto fs = check("x.cc", src);
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
    EXPECT_FALSE(hasRule(check("x.cc", src),
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
    EXPECT_FALSE(hasRule(check("x.cc", src),
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
    EXPECT_FALSE(hasRule(check("x.cc", src),
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
    const auto fs = check("x.cc", src);
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
    EXPECT_FALSE(hasRule(check("x.cc", src),
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
    EXPECT_FALSE(hasRule(check("x.cc", src),
                         "occupancy-to-timing"));
}

TEST(Isolint, TimingPerturbationFlagsInjectorHooks)
{
    const auto fs = check(
        "x.cc", "op.actAt += injector_->slotSkew(op.actAt);\n");
    ASSERT_TRUE(hasRule(fs, "timing-perturbation"));
    EXPECT_EQ(lineOf(fs, "timing-perturbation"), 1u);
    EXPECT_TRUE(hasRule(
        check("x.cc", "skew = injector_->couplingSkew(t, b);\n"),
        "timing-perturbation"));
}

TEST(Isolint, DigitSeparatorAndRawStringDoNotHideLaterFindings)
{
    for (const std::string head :
         {"constexpr int k = 1'000;\n", "const char *s = R\"(a\"b)\";\n"}) {
        const std::string src =
            head + "void S::pick() {\n"
                   "    for (DomainId d = 0; d < mc_.numDomains(); ++d)\n"
                   "        total += mc_.queue(d).size();\n"
                   "}\n";
        const auto fs = check("x.cc", src);
        ASSERT_TRUE(hasRule(fs, "cross-domain-scan")) << head;
        EXPECT_EQ(lineOf(fs, "cross-domain-scan"), 4u);
    }
}

// ---- The real gate: src/sched is argued flow-by-flow. ----

TEST(IsolintGate, SchedTreeCleanUnderCheckedInAllowlist)
{
    const std::string root = MEMSEC_SOURCE_DIR;
    const Allowlist al = Allowlist::fromFile(
        root + "/tools/isolint/allowlist.txt", isolint::ruleSet().rules);
    const auto fs = lintTree(isolint::ruleSet(), root + "/src/sched", al);
    for (const Finding &f : fs)
        ADD_FAILURE() << f.toString();
    EXPECT_TRUE(fs.empty());
}

TEST(IsolintGate, SchedulersFlowWithoutAllowlist)
{
    // Without the allowlist the schedulers must NOT be clean: the
    // FR-FCFS baseline's global scan is a real, documented flow.
    const std::string root = MEMSEC_SOURCE_DIR;
    const auto fs =
        lintTree(isolint::ruleSet(), root + "/src/sched", Allowlist());
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
