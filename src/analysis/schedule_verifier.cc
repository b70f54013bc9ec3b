#include "analysis/schedule_verifier.hh"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "util/logging.hh"

namespace memsec::analysis {

using dram::CmdEdge;
using dram::PairRule;
using dram::RuleId;
using dram::RuleScope;

std::string
ConflictReport::toString() const
{
    // One self-contained sentence per side: slot, owning domain, type,
    // the rule-anchored command edge, the absolute unrolled cycle and
    // its frame-relative offset — enough to find the collision in the
    // template without re-running the verifier.
    const auto side = [](std::ostringstream &os, uint64_t slot,
                         DomainId domain, bool write, dram::CmdEdge edge,
                         Cycle cycle, Cycle frameOffset) {
        os << "slot " << slot << " (domain ";
        if (domain == kNoDomain)
            os << "-";
        else
            os << domain;
        os << ", " << (write ? "W" : "R") << " "
           << dram::cmdEdgeName(edge) << ", cycle " << cycle
           << " = frame offset " << frameOffset << ")";
    };
    std::ostringstream os;
    os << dram::ruleName(rule) << " violated between ";
    side(os, earlierSlot, earlierDomain, earlierWrite, fromEdge,
         earlierCycle, earlierFrameOffset);
    if (againstRefreshEpoch) {
        os << " and the refresh epoch at cycle " << laterCycle;
    } else {
        os << " and ";
        side(os, laterSlot, laterDomain, laterWrite, toEdge, laterCycle,
             laterFrameOffset);
    }
    os << ": gap " << gap << " < " << need;
    return os.str();
}

std::string
VerifyResult::summary() const
{
    std::ostringstream os;
    os << (ok ? "conflict-free" : "CONFLICT") << " at l=" << l
       << " over hyperperiod " << hyperperiod << " (" << slotsChecked
       << " slots, " << pairsChecked << " pairs";
    if (refreshEpochsChecked)
        os << ", " << refreshEpochsChecked << " refresh epochs";
    os << ")";
    if (hasConflict)
        os << ": " << conflict.toString();
    return os.str();
}

namespace {

/** Fill `out`, if given, with a conflict between two unrolled slots;
 *  returns false so a check can return it directly. */
bool
conflictAt(ConflictReport *out, const core::SlotTemplate &t, RuleId id,
           uint64_t si, uint64_t sj, bool wi, bool wj, CmdEdge from,
           CmdEdge to, Cycle cycI, Cycle cycJ, long gap, long need)
{
    if (out) {
        out->rule = id;
        out->earlierSlot = si;
        out->laterSlot = sj;
        out->earlierWrite = wi;
        out->laterWrite = wj;
        out->earlierCycle = cycI;
        out->laterCycle = cycJ;
        out->gap = gap;
        out->need = need;
        out->earlierDomain = t.domainOf(si);
        out->laterDomain = t.domainOf(sj);
        out->fromEdge = from;
        out->toEdge = to;
        out->earlierFrameOffset = cycI % t.frameLength();
        out->laterFrameOffset = cycJ % t.frameLength();
        out->againstRefreshEpoch = false;
    }
    return false;
}

} // namespace

ScheduleVerifier::ScheduleVerifier(const dram::TimingParams &tp,
                                   const VerifierConfig &cfg)
    : tp_(tp), rules_(tp), cfg_(cfg)
{
    tp_.validate();
    fatal_if(cfg_.numDomains == 0, "verifier needs >= 1 domain");
    fatal_if(cfg_.numRanks == 0, "verifier needs >= 1 rank");
    fatal_if(cfg_.bankGroups == 0, "bank group count must be >= 1");
}

core::SlotTemplate
ScheduleVerifier::templateAt(unsigned l) const
{
    fatal_if(l == 0, "slot spacing must be positive");
    // Offsets are definitional (the paper's Figure 1 geometry), so
    // they come from the solver; all *checking* below is an
    // independent implementation.
    core::PipelineSolution sol;
    sol.l = l;
    sol.ref = cfg_.ref;
    sol.level = cfg_.level;
    sol.offsets = core::PipelineSolver(tp_).offsets(cfg_.ref);
    return core::SlotTemplate(sol,
                              std::vector<unsigned>(cfg_.numDomains, 1),
                              cfg_.bankGroups, tp_,
                              cfg_.refresh ? cfg_.numRanks : 0);
}

Cycle
ScheduleVerifier::armedEpoch(const core::SlotTemplate &t,
                             Cycle decisionCycle) const
{
    // FsScheduler arms the first epoch at tREFI and advances only
    // once the current epoch's pause has elapsed: the armed epoch at
    // cycle t is the smallest k*tREFI with t < k*tREFI + pause.
    const Cycle refi = tp_.refi;
    const Cycle pause = t.refreshPause();
    if (decisionCycle < pause)
        return refi;
    return ((decisionCycle - pause) / refi + 1) * refi;
}

bool
ScheduleVerifier::skipped(const core::SlotTemplate &t, uint64_t slot) const
{
    if (t.domainOf(slot) == core::SlotTemplate::kPhantom)
        return true;
    if (!t.refresh())
        return false;
    return t.blackedOut(slot, armedEpoch(t, slot * t.spacing()));
}

bool
ScheduleVerifier::canShareRank(const core::SlotTemplate &t) const
{
    if (t.groups() > 1)
        return true; // triple alternation runs unpartitioned
    return t.solution().level != core::PartitionLevel::Rank;
}

bool
ScheduleVerifier::canShareBank(const core::SlotTemplate &t, uint64_t a,
                               uint64_t b) const
{
    if (t.groups() > 1)
        return t.groupOf(a) == t.groupOf(b);
    return t.solution().level == core::PartitionLevel::None;
}

Cycle
ScheduleVerifier::hyperperiod(unsigned l) const
{
    return hyperperiod(templateAt(l));
}

Cycle
ScheduleVerifier::hyperperiod(const core::SlotTemplate &t) const
{
    const uint64_t l = t.spacing();
    uint64_t h = std::lcm(t.frameLength(), 2 * l);
    if (t.refresh())
        h = std::lcm(h, tp_.refi);
    fatal_if(h / l > 20'000'000,
             "hyperperiod {} is unreasonably large for l={}", h, l);
    return h;
}

bool
ScheduleVerifier::checkPair(const core::SlotTemplate &t, uint64_t si,
                            uint64_t sj, bool wi, bool wj,
                            ConflictReport *out) const
{
    const Cycle actI = t.actAt(si, wi);
    const Cycle casI = t.casAt(si, wi);
    const Cycle actJ = t.actAt(sj, wj);
    const Cycle casJ = t.casAt(sj, wj);

    // Shared command bus: one command per cycle, exact collision.
    for (const auto &[ei, ci] :
         {std::pair{CmdEdge::Act, actI}, std::pair{CmdEdge::Cas, casI}}) {
        for (const auto &[ej, cj] :
             {std::pair{CmdEdge::Act, actJ},
              std::pair{CmdEdge::Cas, casJ}}) {
            if (ci == cj) {
                return conflictAt(out, t, RuleId::CmdBus, si, sj, wi, wj,
                                  ei, ej, ci, cj, 0, 1);
            }
        }
    }

    for (const PairRule &r : rules_.pairRules()) {
        if (r.actWindow > 1)
            continue; // tFAW: sliding-window check, not pairwise
        switch (r.scope) {
          case RuleScope::AnyPair:
            break;
          case RuleScope::SameRank:
            if (!canShareRank(t))
                continue;
            break;
          case RuleScope::SameBank:
            if (!canShareBank(t, si, sj))
                continue;
            break;
        }
        if (!dram::typeMatches(r.earlier, wi) ||
            !dram::typeMatches(r.later, wj))
            continue;
        const Cycle from = t.at(si, r.from, wi);
        const Cycle to = t.at(sj, r.to, wj);
        const long gap = static_cast<long>(to) - static_cast<long>(from);
        if (gap < r.minGap) {
            return conflictAt(out, t, r.id, si, sj, wi, wj, r.from, r.to,
                              from, to, gap, r.minGap);
        }
    }
    return true;
}

bool
ScheduleVerifier::checkFawWindows(const core::SlotTemplate &t,
                                  uint64_t slots,
                                  ConflictReport *out) const
{
    const long faw = rules_.gap(RuleId::Faw);

    // Worst-case same-rank ACT sequences. Under rank partitioning a
    // rank's ACTs come from one domain's slots; otherwise every slot
    // may land in a single rank. The window rule binds a sequence
    // element and the element four positions later.
    std::vector<std::vector<uint64_t>> seqs;
    const bool perDomain = !canShareRank(t);
    seqs.resize(perDomain ? t.numDomains() : 1);

    // Extend past the hyperperiod so windows that straddle the wrap
    // are also checked (the schedule is periodic).
    const uint64_t tail = 5 * t.slotsPerFrame() + 8;
    for (uint64_t s = 0; s < slots + tail; ++s) {
        if (skipped(t, s))
            continue;
        seqs[perDomain ? t.domainOf(s) : 0].push_back(s);
    }

    for (const auto &seq : seqs) {
        for (size_t k = 0; k + 4 < seq.size(); ++k) {
            const uint64_t si = seq[k];
            const uint64_t sj = seq[k + 4];
            if (si >= slots)
                break; // window starts beyond one hyperperiod
            for (bool wi : {false, true}) {
                for (bool wj : {false, true}) {
                    const long from = static_cast<long>(t.actAt(si, wi));
                    const long to = static_cast<long>(t.actAt(sj, wj));
                    if (to - from < faw) {
                        return conflictAt(out, t, RuleId::Faw, si, sj, wi,
                                          wj, CmdEdge::Act, CmdEdge::Act,
                                          static_cast<Cycle>(from),
                                          static_cast<Cycle>(to),
                                          to - from, faw);
                    }
                }
            }
        }
    }
    return true;
}

bool
ScheduleVerifier::checkRefresh(const core::SlotTemplate &t, uint64_t slots,
                               ConflictReport *out,
                               uint64_t *epochs) const
{
    const Cycle refi = tp_.refi;
    const Cycle l = t.spacing();
    const Cycle frame = t.frameLength();
    const Cycle margin = t.refreshMargin();
    const Cycle pause = t.refreshPause();

    // The epoch conflicts anchor the slot's ACT, the earliest edge and
    // the one the Rp/Rfc gaps are measured against.
    auto conflict = [&](RuleId id, uint64_t slot, bool w, Cycle slotCyc,
                        Cycle epochCyc, long gap, long need) {
        conflictAt(out, t, id, slot, slot, w, w, CmdEdge::Act,
                   CmdEdge::Act, slotCyc, epochCyc, gap, need);
        if (out) {
            out->laterDomain = ConflictReport::kNoDomain;
            out->againstRefreshEpoch = true;
        }
        return false;
    };

    // The epoch must fit: quiet-down margin + REF burst + tRFC must
    // leave at least one whole frame of useful slots per interval,
    // the fit FsScheduler's constructor demands.
    if (refi < margin + pause + frame) {
        return conflict(RuleId::Refresh, 0, false, 0, refi,
                        static_cast<long>(refi),
                        static_cast<long>(margin + pause + frame));
    }

    const Cycle h = hyperperiod(t);
    const long reuseRd = rules_.gap(RuleId::ActToActRdA);
    const long reuseWr = rules_.gap(RuleId::ActToActWrA);

    for (Cycle e = refi; e <= h; e += refi) {
        if (epochs)
            ++(*epochs);
        // Slots whose footprint could reach the window [e, e+pause).
        const uint64_t lo = e > margin + frame ? (e - margin - frame) / l
                                               : 0;
        const uint64_t hi =
            std::min<uint64_t>(slots + t.slotsPerFrame(),
                               (e + pause + frame) / l + 2);
        for (uint64_t s = lo; s < hi; ++s) {
            if (skipped(t, s))
                continue;
            for (bool w : {false, true}) {
                const Cycle act = t.actAt(s, w);
                const Cycle cas = t.casAt(s, w);
                const Cycle dat = t.dataAt(s, w);
                // No command may land while the device refreshes
                // (command bus is driving REFs; ranks are busy tRFC).
                for (Cycle c : {act, cas}) {
                    if (c >= e && c < e + pause) {
                        return conflict(RuleId::Rfc, s, w, c, e,
                                        static_cast<long>(c - e),
                                        static_cast<long>(pause));
                    }
                }
                // Data bursts must clear the window too.
                if (dat + tp_.burst > e && dat < e + pause) {
                    return conflict(RuleId::DataBus, s, w, dat, e,
                                    static_cast<long>(dat) -
                                        static_cast<long>(e),
                                    static_cast<long>(pause));
                }
                // REF requires every bank precharged: a slot issued
                // before the epoch must have completed its
                // auto-precharge by the REF cycle.
                if (act < e) {
                    const long reuse = w ? reuseWr : reuseRd;
                    const long quietAt = static_cast<long>(act) + reuse;
                    if (quietAt > static_cast<long>(e)) {
                        return conflict(RuleId::Rp, s, w, act, e,
                                        static_cast<long>(e - act),
                                        reuse);
                    }
                }
            }
        }
    }
    return true;
}

VerifyResult
ScheduleVerifier::verify(unsigned l) const
{
    return l == 0 ? VerifyResult{} : verify(templateAt(l));
}

VerifyResult
ScheduleVerifier::verify(const core::SlotTemplate &t) const
{
    VerifyResult res;
    res.l = t.spacing();
    const unsigned l = res.l;
    res.hyperperiod = hyperperiod(t);
    const uint64_t slots = res.hyperperiod / l;

    // Constraints only bind while the slot distance is within the
    // largest rule constant plus the command-offset span.
    const core::SlotOffsets &off = t.offsets();
    const long span =
        std::max({std::abs(off.actRead), std::abs(off.actWrite),
                  std::abs(off.casRead), std::abs(off.casWrite),
                  std::abs(off.dataRead), std::abs(off.dataWrite)});
    long maxConst = 1;
    for (const PairRule &r : rules_.pairRules())
        maxConst = std::max(maxConst, r.minGap);
    const uint64_t dMax =
        static_cast<uint64_t>((maxConst + 2 * span) / l + 2);

    for (uint64_t i = 0; i < slots; ++i) {
        if (skipped(t, i))
            continue;
        ++res.slotsChecked;
        for (uint64_t d = 1; d <= dMax; ++d) {
            const uint64_t j = i + d;
            if (skipped(t, j))
                continue;
            ++res.pairsChecked;
            for (bool wi : {false, true}) {
                for (bool wj : {false, true}) {
                    if (!checkPair(t, i, j, wi, wj, &res.conflict)) {
                        res.hasConflict = true;
                        return res;
                    }
                }
            }
        }
    }

    if (!checkFawWindows(t, slots, &res.conflict)) {
        res.hasConflict = true;
        return res;
    }
    if (t.refresh() &&
        !checkRefresh(t, slots, &res.conflict,
                      &res.refreshEpochsChecked)) {
        res.hasConflict = true;
        return res;
    }

    res.ok = true;
    return res;
}

unsigned
ScheduleVerifier::minimalFeasible(unsigned maxL) const
{
    for (unsigned l = 1; l <= maxL; ++l) {
        if (verify(l).ok)
            return l;
    }
    return 0;
}

} // namespace memsec::analysis
