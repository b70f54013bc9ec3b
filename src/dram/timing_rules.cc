#include "dram/timing_rules.hh"

#include <algorithm>

#include "util/logging.hh"

namespace memsec::dram {

const char *
cmdEdgeName(CmdEdge e)
{
    switch (e) {
      case CmdEdge::Act: return "ACT";
      case CmdEdge::Cas: return "CAS";
      case CmdEdge::Data: return "DATA";
    }
    panic("unnamed CmdEdge {}", static_cast<int>(e));
}

const char *
ruleName(RuleId id)
{
    switch (id) {
      case RuleId::CmdBus: return "cmd-bus";
      case RuleId::DataBus: return "data-bus";
      case RuleId::Rtrs: return "tRTRS";
      case RuleId::Rrd: return "tRRD";
      case RuleId::Faw: return "tFAW";
      case RuleId::Ccd: return "tCCD";
      case RuleId::Rd2Wr: return "rd2wr";
      case RuleId::Wr2Rd: return "tWTR";
      case RuleId::Rc: return "tRC";
      case RuleId::Rcd: return "tRCD";
      case RuleId::Ras: return "tRAS";
      case RuleId::Rp: return "tRP";
      case RuleId::Rtp: return "tRTP";
      case RuleId::Wr: return "tWR";
      case RuleId::Rfc: return "tRFC";
      case RuleId::Refresh: return "refresh";
      case RuleId::Xp: return "tXP";
      case RuleId::Cke: return "tCKE";
      case RuleId::ActToActRdA: return "same-bank-reuse";
      case RuleId::ActToActWrA: return "same-bank-reuse";
      case RuleId::RowState: return "row-state";
      case RuleId::PowerDown: return "power-down";
    }
    panic("bad rule id");
}

// Deliberately no validate() here: the dynamic checker must be able
// to audit *faulty* (drifted, internally inconsistent) parameter sets
// during fault campaigns. Consumers that require a sane device
// (PipelineSolver, ScheduleVerifier) validate before building a table.
TimingRuleTable::TimingRuleTable(const TimingParams &tp) : tp_(tp)
{
    const auto g = [this](RuleId id) { return gap(id); };

    // The pairwise view, in the exact order the paper derives its
    // inequalities: shared buses first (Equation 1 family), then
    // rank-level rules (Equations 2-4), then same-bank reuse
    // (Section 4.3). CmdBus is deliberately absent: "no two commands
    // in one cycle" is an exact-collision rule on every command-edge
    // pair, not a one-sided minimum gap, so consumers special-case it.
    using E = CmdEdge;
    using S = RuleScope;
    using T = TypePred;
    pair_ = {
        {RuleId::DataBus, S::AnyPair, E::Data, E::Data, T::Any, T::Any, 1,
         g(RuleId::DataBus)},
        {RuleId::Rrd, S::SameRank, E::Act, E::Act, T::Any, T::Any, 1,
         g(RuleId::Rrd)},
        {RuleId::Faw, S::SameRank, E::Act, E::Act, T::Any, T::Any, 4,
         g(RuleId::Faw)},
        {RuleId::Ccd, S::SameRank, E::Cas, E::Cas, T::Read, T::Read, 1,
         g(RuleId::Ccd)},
        {RuleId::Ccd, S::SameRank, E::Cas, E::Cas, T::Write, T::Write, 1,
         g(RuleId::Ccd)},
        {RuleId::Rd2Wr, S::SameRank, E::Cas, E::Cas, T::Read, T::Write, 1,
         g(RuleId::Rd2Wr)},
        {RuleId::Wr2Rd, S::SameRank, E::Cas, E::Cas, T::Write, T::Read, 1,
         g(RuleId::Wr2Rd)},
        {RuleId::Rc, S::SameBank, E::Act, E::Act, T::Any, T::Any, 1,
         g(RuleId::Rc)},
        {RuleId::ActToActRdA, S::SameBank, E::Act, E::Act, T::Read,
         T::Any, 1, g(RuleId::ActToActRdA)},
        {RuleId::ActToActWrA, S::SameBank, E::Act, E::Act, T::Write,
         T::Any, 1, g(RuleId::ActToActWrA)},
    };
}

long
TimingRuleTable::gap(RuleId id) const
{
    switch (id) {
      case RuleId::CmdBus: return 1;
      case RuleId::DataBus:
        // Adjacent FS slots may switch ranks, so the static analyses
        // always budget the burst plus the rank-switch penalty.
        return static_cast<long>(tp_.burst) + tp_.rtrs;
      case RuleId::Rtrs: return tp_.rtrs;
      case RuleId::Rrd: return tp_.rrd;
      case RuleId::Faw: return tp_.faw;
      case RuleId::Ccd: return tp_.ccd;
      case RuleId::Rd2Wr: return tp_.rd2wr();
      case RuleId::Wr2Rd: return tp_.wr2rd();
      case RuleId::Rc: return tp_.rc;
      case RuleId::Rcd: return tp_.rcd;
      case RuleId::Ras: return tp_.ras;
      case RuleId::Rp: return tp_.rp;
      case RuleId::Rtp: return tp_.rtp;
      case RuleId::Wr: return tp_.wr;
      case RuleId::Rfc: return tp_.rfc;
      case RuleId::Refresh: return 2 * static_cast<long>(tp_.refi);
      case RuleId::Xp: return tp_.xp;
      case RuleId::Cke: return tp_.cke;
      case RuleId::ActToActRdA: return tp_.actToActRdA();
      case RuleId::ActToActWrA: return tp_.actToActWrA();
      case RuleId::RowState:
      case RuleId::PowerDown: return 0;
    }
    panic("bad rule id");
}

long
TimingRuleTable::sameBankReuse() const
{
    long reuse = 0;
    for (const PairRule &r : pair_) {
        if (r.scope == RuleScope::SameBank)
            reuse = std::max(reuse, r.minGap);
    }
    return reuse;
}

} // namespace memsec::dram
