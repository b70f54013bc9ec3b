/**
 * @file
 * Sandbox prefetcher (Pugsley et al., HPCA 2014), as used by the
 * paper's Section 5.2 prefetch optimisation.
 *
 * Candidate offset prefetchers are evaluated in a "sandbox": their
 * would-be prefetches are scored against the subsequent miss stream
 * without issuing anything. Candidates that score above a threshold
 * within an evaluation period are promoted and generate real
 * prefetch requests (up to a configurable degree).
 */

#ifndef MEMSEC_CPU_PREFETCHER_HH
#define MEMSEC_CPU_PREFETCHER_HH

#include <vector>

#include "sim/types.hh"
#include "stats/stats.hh"

namespace memsec {
class Serializer;
class Deserializer;
} // namespace memsec

namespace memsec::cpu {

/** Offset-candidate sandbox prefetcher. */
class SandboxPrefetcher
{
  public:
    struct Params
    {
        std::vector<int> candidateOffsets =
            {1, 2, 3, 4, 6, 8, -1, -2, -3, -4}; ///< in cache lines
        unsigned evalPeriod = 256;  ///< misses per sandbox round
        unsigned scoreThreshold = 96; ///< promote at this score
        unsigned degree = 2;        ///< max prefetches per miss
    };

    explicit SandboxPrefetcher(const Params &params);
    SandboxPrefetcher() : SandboxPrefetcher(Params{}) {}

    /**
     * Observe a demand miss; returns the line addresses to prefetch
     * (empty while no candidate is promoted).
     */
    std::vector<Addr> onMiss(Addr addr);

    /** Currently promoted offsets (for tests/inspection). */
    const std::vector<int> &activeOffsets() const { return active_; }

    const Counter &issuedCandidates() const { return issued_; }

    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

  private:
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar);

    Params params_;
    std::vector<unsigned> scores_;
    std::vector<Addr> recentMisses_;
    size_t recentIdx_ = 0;
    unsigned evalCount_ = 0;
    std::vector<int> active_;
    Counter issued_;
};

} // namespace memsec::cpu

#endif // MEMSEC_CPU_PREFETCHER_HH
