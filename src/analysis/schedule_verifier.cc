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

ScheduleVerifier::ScheduleVerifier(const dram::TimingParams &tp,
                                   const VerifierConfig &cfg)
    : tp_(tp), rules_(tp), cfg_(cfg)
{
    tp_.validate();
    fatal_if(cfg_.numDomains == 0, "verifier needs >= 1 domain");
    fatal_if(cfg_.numRanks == 0, "verifier needs >= 1 rank");
    fatal_if(cfg_.bankGroups == 0, "bank group count must be >= 1");

    // Offsets are definitional (the paper's Figure 1 geometry), so
    // they are shared with the solver; all *checking* below is an
    // independent implementation.
    off_ = core::PipelineSolver(tp_).offsets(cfg_.ref);
    const int minOff = std::min({off_.actRead, off_.actWrite,
                                 off_.casRead, off_.casWrite, 0});
    lead_ = static_cast<Cycle>(-minOff);

    // Mirror FsScheduler's slot table: one slot per domain round-robin
    // plus a phantom pad slot when group rotation would not visit
    // every group for every domain.
    for (DomainId d = 0; d < cfg_.numDomains; ++d)
        slotTable_.push_back(d);
    if (cfg_.bankGroups > 1 && slotTable_.size() % cfg_.bankGroups == 0)
        slotTable_.push_back(kPhantom);
    slotsPerFrame_ = static_cast<unsigned>(slotTable_.size());

    if (cfg_.refresh) {
        refreshMargin_ = tp_.actToActWrA() + lead_;
        refreshPause_ = cfg_.numRanks + tp_.rfc;
    }
}

DomainId
ScheduleVerifier::domainOf(uint64_t slot) const
{
    return slotTable_[slot % slotsPerFrame_];
}

Cycle
ScheduleVerifier::refCycleOf(uint64_t slot, unsigned l) const
{
    return slot * l + lead_;
}

Cycle
ScheduleVerifier::actOf(uint64_t slot, unsigned l, bool write) const
{
    return refCycleOf(slot, l) + (write ? off_.actWrite : off_.actRead);
}

Cycle
ScheduleVerifier::casOf(uint64_t slot, unsigned l, bool write) const
{
    return refCycleOf(slot, l) + (write ? off_.casWrite : off_.casRead);
}

Cycle
ScheduleVerifier::dataStartOf(uint64_t slot, unsigned l, bool write) const
{
    return refCycleOf(slot, l) + (write ? off_.dataWrite : off_.dataRead);
}

Cycle
ScheduleVerifier::armedEpoch(Cycle decisionCycle) const
{
    // FsScheduler arms the first epoch at tREFI and advances only
    // once the current epoch's pause has elapsed: the armed epoch at
    // cycle t is the smallest k*tREFI with t < k*tREFI + pause.
    const Cycle refi = tp_.refi;
    if (decisionCycle < refreshPause_)
        return refi;
    return ((decisionCycle - refreshPause_) / refi + 1) * refi;
}

bool
ScheduleVerifier::skipped(uint64_t slot, unsigned l) const
{
    if (domainOf(slot) == kPhantom)
        return true;
    if (!cfg_.refresh)
        return false;
    const Cycle decision = slot * l;
    const Cycle ref = refCycleOf(slot, l);
    return ref + refreshMargin_ > armedEpoch(decision);
}

bool
ScheduleVerifier::canShareRank(uint64_t a, uint64_t b) const
{
    (void)a;
    (void)b;
    if (cfg_.bankGroups > 1)
        return true; // triple alternation runs unpartitioned
    return cfg_.level != core::PartitionLevel::Rank;
}

bool
ScheduleVerifier::canShareBank(uint64_t a, uint64_t b) const
{
    if (cfg_.bankGroups > 1)
        return a % cfg_.bankGroups == b % cfg_.bankGroups;
    return cfg_.level == core::PartitionLevel::None;
}

Cycle
ScheduleVerifier::hyperperiod(unsigned l) const
{
    fatal_if(l == 0, "slot spacing must be positive");
    const uint64_t frame = static_cast<uint64_t>(slotsPerFrame_) * l;
    uint64_t h = std::lcm(frame, static_cast<uint64_t>(2) * l);
    if (cfg_.refresh)
        h = std::lcm(h, tp_.refi);
    fatal_if(h / l > 20'000'000,
             "hyperperiod {} is unreasonably large for l={}", h, l);
    return h;
}

bool
ScheduleVerifier::checkPair(uint64_t si, uint64_t sj, bool wi, bool wj,
                            unsigned l, ConflictReport *out) const
{
    const long actI = static_cast<long>(actOf(si, l, wi));
    const long casI = static_cast<long>(casOf(si, l, wi));
    const long actJ = static_cast<long>(actOf(sj, l, wj));
    const long casJ = static_cast<long>(casOf(sj, l, wj));

    const Cycle frame = static_cast<Cycle>(slotsPerFrame_) * l;
    auto conflict = [&](RuleId id, CmdEdge from, CmdEdge to, long cycI,
                        long cycJ, long gap, long need) {
        if (out) {
            out->rule = id;
            out->earlierSlot = si;
            out->laterSlot = sj;
            out->earlierWrite = wi;
            out->laterWrite = wj;
            out->earlierCycle = static_cast<Cycle>(cycI);
            out->laterCycle = static_cast<Cycle>(cycJ);
            out->gap = gap;
            out->need = need;
            out->earlierDomain = domainOf(si);
            out->laterDomain = domainOf(sj);
            out->fromEdge = from;
            out->toEdge = to;
            out->earlierFrameOffset = static_cast<Cycle>(cycI) % frame;
            out->laterFrameOffset = static_cast<Cycle>(cycJ) % frame;
            out->againstRefreshEpoch = false;
        }
        return false;
    };

    // Shared command bus: one command per cycle, exact collision.
    for (const auto &[ei, ci] :
         {std::pair{CmdEdge::Act, actI}, std::pair{CmdEdge::Cas, casI}}) {
        for (const auto &[ej, cj] :
             {std::pair{CmdEdge::Act, actJ},
              std::pair{CmdEdge::Cas, casJ}}) {
            if (ci == cj)
                return conflict(RuleId::CmdBus, ei, ej, ci, cj, 0, 1);
        }
    }

    for (const PairRule &r : rules_.pairRules()) {
        if (r.actWindow > 1)
            continue; // tFAW: sliding-window check, not pairwise
        switch (r.scope) {
          case RuleScope::AnyPair:
            break;
          case RuleScope::SameRank:
            if (!canShareRank(si, sj))
                continue;
            break;
          case RuleScope::SameBank:
            if (!canShareBank(si, sj))
                continue;
            break;
        }
        if (!dram::typeMatches(r.earlier, wi) ||
            !dram::typeMatches(r.later, wj))
            continue;
        auto edge = [&](uint64_t s, bool w, CmdEdge e) {
            switch (e) {
              case CmdEdge::Act: return static_cast<long>(actOf(s, l, w));
              case CmdEdge::Cas: return static_cast<long>(casOf(s, l, w));
              case CmdEdge::Data:
                return static_cast<long>(dataStartOf(s, l, w));
            }
            panic("bad command edge");
        };
        const long from = edge(si, wi, r.from);
        const long to = edge(sj, wj, r.to);
        if (to - from < r.minGap)
            return conflict(r.id, r.from, r.to, from, to, to - from,
                            r.minGap);
    }
    return true;
}

bool
ScheduleVerifier::checkFawWindows(unsigned l, uint64_t slots,
                                  ConflictReport *out) const
{
    const long faw = rules_.gap(RuleId::Faw);

    // Worst-case same-rank ACT sequences. Under rank partitioning a
    // rank's ACTs come from one domain's slots; otherwise every slot
    // may land in a single rank. The window rule binds a sequence
    // element and the element four positions later.
    std::vector<std::vector<uint64_t>> seqs;
    const bool perDomain =
        cfg_.level == core::PartitionLevel::Rank && cfg_.bankGroups == 1;
    if (perDomain)
        seqs.resize(cfg_.numDomains);
    else
        seqs.resize(1);

    // Extend past the hyperperiod so windows that straddle the wrap
    // are also checked (the schedule is periodic).
    const uint64_t tail = 5ull * slotsPerFrame_ + 8;
    for (uint64_t s = 0; s < slots + tail; ++s) {
        if (skipped(s, l))
            continue;
        const DomainId d = domainOf(s);
        seqs[perDomain ? d : 0].push_back(s);
    }

    for (const auto &seq : seqs) {
        for (size_t k = 0; k + 4 < seq.size(); ++k) {
            const uint64_t si = seq[k];
            const uint64_t sj = seq[k + 4];
            if (si >= slots)
                break; // window starts beyond one hyperperiod
            for (bool wi : {false, true}) {
                for (bool wj : {false, true}) {
                    const long from = static_cast<long>(actOf(si, l, wi));
                    const long to = static_cast<long>(actOf(sj, l, wj));
                    if (to - from < faw) {
                        if (out) {
                            const Cycle frame =
                                static_cast<Cycle>(slotsPerFrame_) * l;
                            out->rule = RuleId::Faw;
                            out->earlierSlot = si;
                            out->laterSlot = sj;
                            out->earlierWrite = wi;
                            out->laterWrite = wj;
                            out->earlierCycle = static_cast<Cycle>(from);
                            out->laterCycle = static_cast<Cycle>(to);
                            out->gap = to - from;
                            out->need = faw;
                            out->earlierDomain = domainOf(si);
                            out->laterDomain = domainOf(sj);
                            out->fromEdge = CmdEdge::Act;
                            out->toEdge = CmdEdge::Act;
                            out->earlierFrameOffset =
                                static_cast<Cycle>(from) % frame;
                            out->laterFrameOffset =
                                static_cast<Cycle>(to) % frame;
                            out->againstRefreshEpoch = false;
                        }
                        return false;
                    }
                }
            }
        }
    }
    return true;
}

bool
ScheduleVerifier::checkRefresh(unsigned l, uint64_t slots,
                               ConflictReport *out,
                               uint64_t *epochs) const
{
    const Cycle refi = tp_.refi;
    const Cycle frame = static_cast<Cycle>(slotsPerFrame_) * l;

    auto conflict = [&](RuleId id, uint64_t slot, bool w, Cycle slotCyc,
                        Cycle epochCyc, long gap, long need) {
        if (out) {
            out->rule = id;
            out->earlierSlot = slot;
            out->laterSlot = slot;
            out->earlierWrite = w;
            out->laterWrite = w;
            out->earlierCycle = slotCyc;
            out->laterCycle = epochCyc;
            out->gap = gap;
            out->need = need;
            out->earlierDomain = domainOf(slot);
            out->laterDomain = ConflictReport::kNoDomain;
            // The epoch conflicts anchor the slot's nearest command
            // edge; ACT is the earliest and is what the Rp/Rfc gaps
            // are measured against.
            out->fromEdge = CmdEdge::Act;
            out->toEdge = CmdEdge::Act;
            out->earlierFrameOffset = slotCyc % frame;
            out->laterFrameOffset = epochCyc % frame;
            out->againstRefreshEpoch = true;
        }
        return false;
    };

    // The epoch must fit: quiet-down margin + REF burst + tRFC must
    // leave at least one whole frame of useful slots per interval,
    // mirroring the constructor check in FsScheduler.
    if (refi < refreshMargin_ + refreshPause_ + frame) {
        return conflict(RuleId::Refresh, 0, false, 0, refi,
                        static_cast<long>(refi),
                        static_cast<long>(refreshMargin_ +
                                          refreshPause_ + frame));
    }

    const Cycle h = hyperperiod(l);
    const long reuseRd = rules_.gap(RuleId::ActToActRdA);
    const long reuseWr = rules_.gap(RuleId::ActToActWrA);

    for (Cycle e = refi; e <= h; e += refi) {
        if (epochs)
            ++(*epochs);
        // Slots whose footprint could reach the window [e, e+pause).
        const uint64_t lo =
            e > refreshMargin_ + frame
                ? (e - refreshMargin_ - frame) / l
                : 0;
        const uint64_t hi =
            std::min<uint64_t>(slots + slotsPerFrame_,
                               (e + refreshPause_ + frame) / l + 2);
        for (uint64_t s = lo; s < hi; ++s) {
            if (skipped(s, l))
                continue;
            for (bool w : {false, true}) {
                const Cycle act = actOf(s, l, w);
                const Cycle cas = casOf(s, l, w);
                const Cycle dat = dataStartOf(s, l, w);
                // No command may land while the device refreshes
                // (command bus is driving REFs; ranks are busy tRFC).
                for (Cycle c : {act, cas}) {
                    if (c >= e && c < e + refreshPause_) {
                        return conflict(RuleId::Rfc, s, w, c, e,
                                        static_cast<long>(c - e),
                                        static_cast<long>(refreshPause_));
                    }
                }
                // Data bursts must clear the window too.
                if (dat + tp_.burst > e && dat < e + refreshPause_) {
                    return conflict(RuleId::DataBus, s, w, dat, e,
                                    static_cast<long>(dat) -
                                        static_cast<long>(e),
                                    static_cast<long>(refreshPause_));
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
    VerifyResult res;
    res.l = l;
    if (l == 0)
        return res;

    res.hyperperiod = hyperperiod(l);
    const uint64_t slots = res.hyperperiod / l;

    // Constraints only bind while the slot distance is within the
    // largest rule constant plus the command-offset span.
    const long span =
        std::max({std::abs(off_.actRead), std::abs(off_.actWrite),
                  std::abs(off_.casRead), std::abs(off_.casWrite),
                  std::abs(off_.dataRead), std::abs(off_.dataWrite)});
    long maxConst = 1;
    for (const PairRule &r : rules_.pairRules())
        maxConst = std::max(maxConst, r.minGap);
    const uint64_t dMax =
        static_cast<uint64_t>((maxConst + 2 * span) / l + 2);

    for (uint64_t i = 0; i < slots; ++i) {
        if (skipped(i, l))
            continue;
        ++res.slotsChecked;
        for (uint64_t d = 1; d <= dMax; ++d) {
            const uint64_t j = i + d;
            if (skipped(j, l))
                continue;
            ++res.pairsChecked;
            for (bool wi : {false, true}) {
                for (bool wj : {false, true}) {
                    if (!checkPair(i, j, wi, wj, l, &res.conflict)) {
                        res.hasConflict = true;
                        return res;
                    }
                }
            }
        }
    }

    if (!checkFawWindows(l, slots, &res.conflict)) {
        res.hasConflict = true;
        return res;
    }
    if (cfg_.refresh &&
        !checkRefresh(l, slots, &res.conflict,
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

bool
ScheduleVerifier::domainReuseHazard(unsigned l) const
{
    // A domain's consecutive slots are one frame apart at the
    // reference point; command skew between a write and a read slot
    // shrinks the worst-case ACT-to-ACT gap.
    const long skew = std::abs(static_cast<long>(off_.actRead) -
                               static_cast<long>(off_.actWrite));
    const long worstGap =
        static_cast<long>(cfg_.numDomains) * l - skew;
    return worstGap < rules_.gap(RuleId::ActToActWrA);
}

} // namespace memsec::analysis
