/**
 * @file
 * Fixed-capacity object pool for allocation-free steady state.
 *
 * A fixed-service scheduler allocates a dummy request for every slot
 * its domain leaves empty, so on an idle schedule nearly every slot
 * would otherwise hit the heap. Those requests should come from
 * storage sized up front instead. FixedPool provides that storage:
 * objects are constructed lazily up to a hard capacity and
 * recycled through a free list; exhaustion is a *structured*
 * condition (tryAcquire() returns nullptr, overflowError() describes
 * it as a SimError) rather than UB or an unbounded allocation.
 *
 * Ownership transfers with the object: tryAcquire() hands out a
 * unique_ptr, release() takes it back for reuse. Callers that need
 * graceful degradation pair the pool with a heap fallback and route
 * returns by provenance (MemoryController's dummy-request recycling).
 */

#ifndef MEMSEC_UTIL_FIXED_POOL_HH
#define MEMSEC_UTIL_FIXED_POOL_HH

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/sim_error.hh"

namespace memsec {

/** Fixed-capacity recycling pool; see file comment. */
template <typename T>
class FixedPool
{
  public:
    explicit FixedPool(size_t capacity, std::string name = "pool")
        : capacity_(capacity), name_(std::move(name))
    {
        free_.reserve(capacity_);
    }

    size_t capacity() const { return capacity_; }
    size_t outstanding() const { return outstanding_; }
    size_t cached() const { return free_.size(); }

    /**
     * Hand out a recycled object (reset to a default-constructed
     * state), or construct a new one while the pool is below
     * capacity. Returns nullptr when `capacity` objects are already
     * live or cached — never allocates past the budget.
     */
    std::unique_ptr<T> tryAcquire()
    {
        if (!free_.empty()) {
            std::unique_ptr<T> obj = std::move(free_.back());
            free_.pop_back();
            *obj = T{};
            ++outstanding_;
            return obj;
        }
        if (outstanding_ >= capacity_)
            return nullptr;
        ++outstanding_;
        return std::make_unique<T>();
    }

    /** Return an object acquired from this pool for reuse. */
    void release(std::unique_ptr<T> obj)
    {
        panic_if(obj == nullptr, "FixedPool[{}]: release(nullptr)",
                 name_);
        panic_if(outstanding_ == 0,
                 "FixedPool[{}]: release with no object outstanding",
                 name_);
        --outstanding_;
        free_.push_back(std::move(obj));
    }

    /** Structured description of an exhaustion at cycle `now`. */
    SimError overflowError(Cycle now, const std::string &what) const
    {
        SimError err;
        err.cycle = now;
        err.category = "pool-exhausted";
        err.message = "FixedPool[" + name_ + "] capacity " +
                      std::to_string(capacity_) + " exhausted: " + what;
        return err;
    }

  private:
    size_t capacity_ = 0;
    std::string name_;
    size_t outstanding_ = 0;              ///< live, not yet released
    std::vector<std::unique_ptr<T>> free_; ///< cached for reuse
};

} // namespace memsec

#endif // MEMSEC_UTIL_FIXED_POOL_HH
