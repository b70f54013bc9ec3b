/**
 * @file
 * Non-interference auditing.
 *
 * The paper argues mathematically that FS leaks nothing; here we test
 * it empirically end-to-end: a victim's externally visible timeline —
 * its per-request service history and its instruction-progress curve
 * (Figure 4) — must be bit-identical no matter what the co-scheduled
 * domains do. The auditor captures those timelines and compares them.
 */

#ifndef MEMSEC_CORE_NONINTERFERENCE_HH
#define MEMSEC_CORE_NONINTERFERENCE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace memsec::core {

/** One serviced request as seen from the victim's side. */
struct ServiceEvent
{
    uint64_t ordinal = 0;  ///< nth demand read of the victim
    Cycle arrival = 0;     ///< cycle it reached the controller
    Cycle completed = 0;   ///< cycle its data returned

    bool operator==(const ServiceEvent &o) const
    {
        return ordinal == o.ordinal && arrival == o.arrival &&
               completed == o.completed;
    }

    template <class Self, class Ar>
    static void io(Self &self, Ar &ar)
    {
        ar.io(self.ordinal, self.arrival, self.completed);
    }
};

/** Everything an attacker-visible victim timeline contains. */
struct VictimTimeline
{
    /** Per-request service history. */
    std::vector<ServiceEvent> service;
    /** CPU cycle at which each K-instruction checkpoint retired
     *  (the Figure 4 progress curve). */
    std::vector<uint64_t> progress;

    void recordService(Cycle arrival, Cycle completed);

    template <class Self, class Ar>
    static void io(Self &self, Ar &ar)
    {
        ar.io(self.service, self.progress);
    }
};

/** Outcome of comparing two victim timelines. */
struct AuditResult
{
    bool identical = false;
    std::string detail;          ///< first divergence, if any
    double maxProgressSkewPct = 0.0; ///< worst relative progress gap
};

/**
 * Where two service logs first differ: the first unequal pair, else
 * the common length when one log is longer, else nullopt. The one
 * scan behind compareTimelines() and the certifier's witness.
 */
std::optional<size_t>
firstServiceDivergence(const std::vector<ServiceEvent> &a,
                       const std::vector<ServiceEvent> &b);

/**
 * Compare the victim's timeline under two different co-runner sets.
 * For a leak-free scheduler the result must be identical == true.
 */
AuditResult compareTimelines(const VictimTimeline &a,
                             const VictimTimeline &b);

} // namespace memsec::core

#endif // MEMSEC_CORE_NONINTERFERENCE_HH
