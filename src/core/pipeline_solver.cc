#include "core/pipeline_solver.hh"

#include <algorithm>
#include <sstream>

#include "util/logging.hh"

namespace memsec::core {

const char *
periodicRefName(PeriodicRef r)
{
    switch (r) {
      case PeriodicRef::Data: return "fixed-periodic-data";
      case PeriodicRef::Ras: return "fixed-periodic-RAS";
      case PeriodicRef::Cas: return "fixed-periodic-CAS";
    }
    return "???";
}

const char *
partitionLevelName(PartitionLevel p)
{
    switch (p) {
      case PartitionLevel::Rank: return "rank-partitioned";
      case PartitionLevel::Bank: return "bank-partitioned";
      case PartitionLevel::None: return "unpartitioned";
    }
    return "???";
}

PipelineSolver::PipelineSolver(const dram::TimingParams &tp)
    : tp_(tp), rules_(tp)
{
    tp_.validate();
}

SlotOffsets
PipelineSolver::offsets(PeriodicRef ref) const
{
    const int cas = static_cast<int>(tp_.cas);
    const int cwd = static_cast<int>(tp_.cwd);
    const int rcd = static_cast<int>(tp_.rcd);
    switch (ref) {
      case PeriodicRef::Data:
        return {-cas - rcd, -cas, 0, -cwd - rcd, -cwd, 0};
      case PeriodicRef::Ras:
        return {0, rcd, rcd + cas, 0, rcd, rcd + cwd};
      case PeriodicRef::Cas:
        return {-rcd, 0, cas, -rcd, 0, cwd};
    }
    panic("bad periodic reference");
}

namespace {

/** Commands of one slot given its type (read/write). */
struct SlotCmds
{
    int act = 0;
    int cas = 0;
    int data = 0;
};

SlotCmds
cmdsOf(const SlotOffsets &off, bool write)
{
    if (write)
        return {off.actWrite, off.casWrite, off.dataWrite};
    return {off.actRead, off.casRead, off.dataRead};
}

int
edgeOf(const SlotCmds &c, dram::CmdEdge e)
{
    switch (e) {
      case dram::CmdEdge::Act: return c.act;
      case dram::CmdEdge::Cas: return c.cas;
      case dram::CmdEdge::Data: return c.data;
    }
    panic("bad command edge");
}

/**
 * Which sharing scopes two *distinct* slots can realise at a given
 * partition level. Under rank partitioning no two slots of one frame
 * share a rank (same-domain reuse across frames is guarded
 * dynamically by the schedulers' planned shadow, sched::ClosedRowPlan);
 * under bank partitioning slots may share a rank but never a bank.
 */
bool
scopeApplies(dram::RuleScope s, PartitionLevel level)
{
    switch (s) {
      case dram::RuleScope::AnyPair: return true;
      case dram::RuleScope::SameRank: return level != PartitionLevel::Rank;
      case dram::RuleScope::SameBank: return level == PartitionLevel::None;
    }
    panic("bad rule scope");
}

} // namespace

bool
PipelineSolver::checkPair(PeriodicRef ref, PartitionLevel level,
                          unsigned spacing, unsigned d, bool laterWrite,
                          bool earlierWrite, std::string *why) const
{
    const SlotOffsets off = offsets(ref);
    const SlotCmds later = cmdsOf(off, laterWrite);
    const SlotCmds earlier = cmdsOf(off, earlierWrite);
    const long gap = static_cast<long>(d) * spacing;

    auto blocked = [&](const char *rule, long have, long need) {
        if (why) {
            std::ostringstream os;
            os << rule << " violated for d=" << d << " ("
               << (earlierWrite ? "W" : "R") << "->"
               << (laterWrite ? "W" : "R") << "): gap " << have
               << " < " << need;
            *why = os.str();
        }
        return false;
    };

    // Command-bus conflicts: no two commands in the same cycle (the
    // paper's Equation 1 family). Exact collision, so not expressible
    // as a one-sided gap rule from the shared table.
    const int laterCmds[2] = {later.act, later.cas};
    const int earlierCmds[2] = {earlier.act, earlier.cas};
    for (int lc : laterCmds) {
        for (int ec : earlierCmds) {
            if (gap + lc - ec == 0)
                return blocked(dram::ruleName(dram::RuleId::CmdBus), 0, 1);
        }
    }

    // Every remaining inequality (Equations 2-4 and the same-bank
    // reuse bound) is generated from the shared rule table: a rule
    // binds when the pair can realise its sharing scope at this
    // partition level, the pair's types match, and — for the tFAW
    // window rule — the slots are exactly four apart.
    for (const dram::PairRule &r : rules_.pairRules()) {
        if (!scopeApplies(r.scope, level))
            continue;
        if (!dram::typeMatches(r.earlier, earlierWrite) ||
            !dram::typeMatches(r.later, laterWrite))
            continue;
        if (r.actWindow > 1 && d != r.actWindow)
            continue;
        const long have =
            gap + edgeOf(later, r.to) - edgeOf(earlier, r.from);
        if (have < r.minGap)
            return blocked(dram::ruleName(r.id), have, r.minGap);
    }
    return true;
}

bool
PipelineSolver::feasible(PeriodicRef ref, PartitionLevel level, unsigned l,
                         std::string *why) const
{
    if (l == 0) {
        if (why)
            *why = "l must be positive";
        return false;
    }
    // Constraints can only bind while d*l is within the largest
    // constant plus the command-offset span.
    const SlotOffsets off = offsets(ref);
    const long span =
        std::max({std::abs(off.actRead), std::abs(off.actWrite),
                  std::abs(off.dataRead), std::abs(off.dataWrite),
                  std::abs(off.casRead), std::abs(off.casWrite)});
    long maxConst = 1;
    for (const dram::PairRule &r : rules_.pairRules())
        maxConst = std::max(maxConst, r.minGap);
    const unsigned dMax = static_cast<unsigned>(
        (maxConst + 2 * span) / static_cast<long>(l) + 2);

    for (unsigned d = 1; d <= dMax; ++d) {
        for (bool laterWrite : {false, true}) {
            for (bool earlierWrite : {false, true}) {
                if (!checkPair(ref, level, l, d, laterWrite, earlierWrite,
                               why))
                    return false;
            }
        }
    }
    return true;
}

PipelineSolution
PipelineSolver::solve(PeriodicRef ref, PartitionLevel level,
                      unsigned maxL) const
{
    PipelineSolution sol;
    sol.ref = ref;
    sol.level = level;
    sol.offsets = offsets(ref);
    for (unsigned l = 1; l <= maxL; ++l) {
        if (feasible(ref, level, l)) {
            sol.feasible = true;
            sol.l = l;
            return sol;
        }
    }
    return sol;
}

PipelineSolution
PipelineSolver::solveBest(PartitionLevel level, unsigned maxL) const
{
    PipelineSolution best;
    for (PeriodicRef ref :
         {PeriodicRef::Data, PeriodicRef::Ras, PeriodicRef::Cas}) {
        PipelineSolution s = solve(ref, level, maxL);
        if (s.feasible && (!best.feasible || s.l < best.l))
            best = s;
    }
    return best;
}

ReorderedSolution
PipelineSolver::solveReordered(unsigned threads) const
{
    fatal_if(threads == 0, "reordered interval needs >= 1 thread");
    // Every thread may target one rank under bank partitioning, so the
    // rank-level rules bind between any two slots of an interval.
    constexpr PeriodicRef ref = PeriodicRef::Data;
    constexpr PartitionLevel level = PartitionLevel::Bank;

    // Within an interval the data-slot order is reads then writes, so
    // the pairs at each distance are (R,R), (R,W) and (W,W) only.
    auto spacingOk = [&](unsigned s) {
        for (unsigned d = 1; d <= threads; ++d) {
            for (bool ew : {false, true}) {
                for (bool lw : {false, true}) {
                    if ((!ew || lw) &&
                        !checkPair(ref, level, s, d, lw, ew, nullptr))
                        return false;
                }
            }
        }
        return true;
    };
    ReorderedSolution out;
    out.offsets = offsets(ref);
    for (unsigned s = tp_.burst; s <= 256 && out.spacing == 0; ++s) {
        if (spacingOk(s))
            out.spacing = s;
    }
    fatal_if(out.spacing == 0, "no feasible reordered spacing found");

    // Across the interval boundary the last write is followed, one
    // data gap later, by the first read of the next interval.
    unsigned endGap = out.spacing;
    while (!checkPair(ref, level, endGap, 1, false, true, nullptr))
        ++endGap;

    out.endGap = endGap;
    out.q = (threads - 1) * out.spacing + endGap;
    out.peakUtilisation =
        static_cast<double>(threads * tp_.burst) / out.q;
    return out;
}

unsigned
PipelineSolver::alternationFactor() const
{
    const PipelineSolution bank = solveBest(PartitionLevel::Bank);
    panic_if(!bank.feasible, "no bank-partitioned pipeline exists");
    const auto reuse = static_cast<unsigned>(rules_.sameBankReuse());
    return (reuse + bank.l - 1) / bank.l;
}

} // namespace memsec::core
