/**
 * @file
 * The paper's mathematical pipeline model (Sections 3 and 4).
 *
 * A Fixed-Service pipeline issues one shaped transaction per slot,
 * slots spaced l cycles apart measured at a fixed reference point
 * (the data burst, the ACT, or the CAS). The solver generates, for a
 * given DRAM part and spatial-partitioning level, every inequality
 * the paper derives (command-bus conflicts, tRRD, tFAW, CAS
 * turnaround, same-bank reuse) and searches for the minimum feasible
 * l. The paper's constants — l = 7 (rank partitioning, fixed periodic
 * data), 12 (rank, fixed RAS/CAS), 15 (bank, fixed RAS), >= 21 (bank,
 * fixed data), 43 (no partitioning) — are outputs of this solver,
 * asserted by tests, not hard-coded inputs.
 */

#ifndef MEMSEC_CORE_PIPELINE_SOLVER_HH
#define MEMSEC_CORE_PIPELINE_SOLVER_HH

#include <string>

#include "dram/timing.hh"
#include "dram/timing_rules.hh"
#include "sim/types.hh"

namespace memsec::core {

/** Which command of a transaction recurs with fixed period. */
enum class PeriodicRef : uint8_t
{
    Data, ///< fixed periodic data (Section 3.1's best choice for RP)
    Ras,  ///< fixed periodic ACT (best for bank / no partitioning)
    Cas,  ///< fixed periodic column command
};

const char *periodicRefName(PeriodicRef r);

/**
 * What consecutive slots are guaranteed not to share.
 * Rank: adjacent slots always target different ranks.
 * Bank: slots may share a rank but never a bank.
 * None: slots may target the same bank (different rows).
 */
enum class PartitionLevel : uint8_t { Rank, Bank, None };

const char *partitionLevelName(PartitionLevel p);

/** Command/data offsets (cycles, relative to the slot reference). */
struct SlotOffsets
{
    int actRead = 0;
    int casRead = 0;
    int dataRead = 0;
    int actWrite = 0;
    int casWrite = 0;
    int dataWrite = 0;
};

/** Solver output for one (reference, partition) design point. */
struct PipelineSolution
{
    bool feasible = false;
    unsigned l = 0;        ///< minimum slot spacing (cycles)
    PeriodicRef ref = PeriodicRef::Data;
    PartitionLevel level = PartitionLevel::Rank;
    SlotOffsets offsets{};

    /** Interval length Q for `threads` one-slot-per-thread domains. */
    unsigned intervalQ(unsigned threads) const { return l * threads; }

    /** Peak data-bus utilisation: tBURST / l. */
    double peakUtilisation(unsigned burst) const
    {
        return l ? static_cast<double>(burst) / l : 0.0;
    }
};

/** Result of the reordered bank-partitioning analysis (Section 4.2). */
struct ReorderedSolution
{
    SlotOffsets offsets{};  ///< the fixed-periodic-data template
    unsigned spacing = 0;   ///< data-burst spacing within the interval
    unsigned endGap = 0;    ///< extra data gap after the last write
    unsigned q = 0;         ///< interval length for N threads
    double peakUtilisation = 0.0;
};

/** Derives FS pipeline parameters from DRAM timing. */
class PipelineSolver
{
  public:
    explicit PipelineSolver(const dram::TimingParams &tp);

    /** Command/data offsets for a given periodic reference. */
    SlotOffsets offsets(PeriodicRef ref) const;

    /**
     * True if slot spacing l is conflict-free for (ref, level);
     * optionally reports the first violated rule.
     */
    bool feasible(PeriodicRef ref, PartitionLevel level, unsigned l,
                  std::string *why = nullptr) const;

    /** Minimum feasible l in [1, maxL]; !feasible if none. */
    PipelineSolution solve(PeriodicRef ref, PartitionLevel level,
                           unsigned maxL = 512) const;

    /** Best (smallest-l) solution across all periodic references. */
    PipelineSolution solveBest(PartitionLevel level,
                               unsigned maxL = 512) const;

    /**
     * Section 4.2's read/write-reordered bank-partitioned interval:
     * all reads back-to-back, then all writes, then a write-to-read
     * recovery gap before the next interval. Returns the per-slot data
     * spacing and the interval length Q for `threads` threads.
     */
    ReorderedSolution solveReordered(unsigned threads) const;

    /**
     * Alternation factor for the no-partitioning optimisation
     * (Section 4.3): the number of bank groups g such that slots g
     * apart (the closest same-group, potentially same-bank slots) are
     * separated by at least the worst-case same-bank reuse time.
     * ceil(reuse / l_bank); 3 for the paper's DDR3 part.
     */
    unsigned alternationFactor() const;

    const dram::TimingParams &timing() const { return tp_; }

    /** The shared rule table every inequality is generated from. */
    const dram::TimingRuleTable &rules() const { return rules_; }

  private:
    /** True if every rule binding at `level` holds between slots d
     *  apart at `spacing`; optionally reports the violated rule. */
    bool checkPair(PeriodicRef ref, PartitionLevel level, unsigned spacing,
                   unsigned d, bool laterWrite, bool earlierWrite,
                   std::string *why) const;

    dram::TimingParams tp_;
    dram::TimingRuleTable rules_;
};

} // namespace memsec::core

#endif // MEMSEC_CORE_PIPELINE_SOLVER_HH
