/**
 * @file
 * Structured error reporting for recoverable simulation faults.
 *
 * panic()/fatal() kill the process, which is the right answer for
 * invariant violations in correctness-critical runs but the wrong one
 * for long sweeps and fault-injection campaigns: there a run should
 * degrade gracefully, record what went wrong, and keep going. A
 * RunReport is that channel — components with a report attached record
 * SimErrors (capped, with per-category totals) instead of aborting;
 * components without one keep the strict panic/fatal behaviour.
 */

#ifndef MEMSEC_UTIL_SIM_ERROR_HH
#define MEMSEC_UTIL_SIM_ERROR_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace memsec {

class Serializer;
class Deserializer;

/** One recoverable fault observed during a run. */
struct SimError
{
    Cycle cycle = 0;
    std::string category; ///< e.g. "illegal-issue", "queue-overflow"
    std::string message;

    std::string toString() const;

    template <class Self, class Ar>
    static void io(Self &self, Ar &ar)
    {
        ar.io(self.cycle, self.category, self.message);
    }
};

/**
 * Per-run collection of recoverable faults. Stores the first `cap`
 * errors verbatim (diagnosis needs the earliest ones, later errors
 * are usually cascade) and counts everything, so an injection
 * campaign cannot grow memory without bound.
 */
class RunReport
{
  public:
    explicit RunReport(size_t cap = 256) : cap_(cap) {}

    void record(SimError err);

    /** All errors ever recorded (including ones past the cap). */
    uint64_t total() const { return total_; }

    /** Errors recorded under one category. */
    uint64_t count(const std::string &category) const;

    /** Per-category totals, sorted by category. */
    const std::map<std::string, uint64_t> &byCategory() const
    {
        return counts_;
    }

    /** The first `cap` errors, in arrival order. */
    const std::vector<SimError> &errors() const { return errors_; }

    bool empty() const { return total_ == 0; }

    /** "category: count" lines plus the first few messages. */
    std::string summary() const;

    /** Checkpoint recorded errors (they feed the result digest). */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

  private:
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar);

    size_t cap_ = 0;
    std::vector<SimError> errors_;
    std::map<std::string, uint64_t> counts_;
    uint64_t total_ = 0;
};

} // namespace memsec

#endif // MEMSEC_UTIL_SIM_ERROR_HH
