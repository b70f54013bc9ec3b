/**
 * @file
 * Set-associative writeback last-level cache.
 *
 * One instance per core: the paper's shared L2 must itself be
 * partitioned for the end-to-end system to be leak-free (cache side
 * channels are out of scope and assumed handled, Section 2.2), so we
 * model the per-core partition directly: 4 MB / 8 cores = 512 KB,
 * 8-way, LRU, write-allocate, writeback.
 */

#ifndef MEMSEC_CACHE_CACHE_HH
#define MEMSEC_CACHE_CACHE_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"
#include "stats/stats.hh"

namespace memsec {
class Serializer;
class Deserializer;
} // namespace memsec

namespace memsec::cache {

/** Result of a cache access. */
struct AccessResult
{
    bool hit = false;
    bool prefetchHit = false; ///< first demand touch of a prefetched line
};

/** Result of a line fill. */
struct FillResult
{
    bool evictedDirty = false;
    Addr writebackAddr = 0;
};

/** Simple blocking-free LRU cache model. */
class Cache
{
  public:
    /**
     * @param sizeBytes total capacity
     * @param ways associativity
     */
    Cache(uint64_t sizeBytes, unsigned ways);

    /**
     * Look up (and touch) a line. On a store hit the line is marked
     * dirty. Misses do NOT allocate; the owner fetches the line and
     * calls fill() when data returns.
     */
    AccessResult access(Addr addr, bool isStore);

    /** True if the line is present (no LRU update). */
    bool contains(Addr addr) const;

    /** Install a line; returns any dirty victim to write back.
     *  `prefetched` marks the line for usefulness accounting. */
    FillResult fill(Addr addr, bool dirty, bool prefetched = false);

    /**
     * access(), then fill() on a miss, in one set scan: the
     * functional warmup's lookup, inline so the warm kernel
     * (cpu/trace.hh) compiles it into its loop. Counters, LRU stamps
     * and the dirty and prefetched bits end exactly as after
     * `if (!access(addr, isStore).hit) fill(addr, isStore);`.
     * A dirty victim is dropped, as warmup drops its writebacks.
     */
    inline void accessOrFill(Addr addr, bool isStore);

    /** Mark a resident line dirty (store completing after fill). */
    void markDirty(Addr addr);

    unsigned numSets() const { return static_cast<unsigned>(numSets_); }
    unsigned ways() const { return ways_; }

    const Counter &hits() const { return hits_; }
    const Counter &misses() const { return misses_; }

    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

  private:
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar);

    /**
     * A way's tag-plus-flags word. The valid/dirty/prefetched flags
     * live in its top three bits, which a tag never reaches: a tag is
     * at most 64 - log2(kLineBytes) bits wide.
     */
    static constexpr uint64_t kValid = 1ull << 63;
    static constexpr uint64_t kDirty = 1ull << 62;
    static constexpr uint64_t kPrefetched = 1ull << 61;
    static constexpr uint64_t kFlags = kValid | kDirty | kPrefetched;
    static_assert(kLineBytes >= 8, "tags must leave the flag bits clear");

    /** The tag word of `addr`'s way in its set, or nullptr on a
     *  miss; that way's LRU stamp is `ways_` words further on. */
    uint64_t *find(Addr addr);
    const uint64_t *find(Addr addr) const;
    /** The tag words of `addr`'s set; its stamps follow them. */
    uint64_t *setOf(Addr addr) { return &words_[setIndex(addr) * 2 * ways_]; }
    uint64_t setIndex(Addr addr) const
    {
        return (addr / kLineBytes) & (numSets_ - 1);
    }
    Addr tagOf(Addr addr) const { return (addr / kLineBytes) >> setBits_; }

    unsigned ways_ = 0;
    uint64_t numSets_ = 0;
    unsigned setBits_ = 0;
    /**
     * Set-major: set s occupies words [2 s ways_, 2 (s + 1) ways_),
     * its ways' tag words back to back (one 64-byte line at 8 ways),
     * then their LRU stamps in the same order. A lookup's tag compare
     * reads one line; only a hit or a victim search reads stamps.
     */
    std::vector<uint64_t> words_;
    uint64_t stamp_ = 0;
    Counter hits_;
    Counter misses_;
};

inline void
Cache::accessOrFill(Addr addr, bool isStore)
{
    uint64_t *tags = setOf(addr);
    uint64_t *stamps = tags + ways_;
    const uint64_t want = kValid | tagOf(addr);
    // A line sits in at most one way, so the scan needs no early
    // exit: a select per way instead of a branch on a hit position
    // the predictor cannot guess.
    unsigned hit = ways_;
    uint64_t allValid = kValid;
    for (unsigned w = 0; w < ways_; ++w) {
        hit = (tags[w] & ~(kDirty | kPrefetched)) == want ? w : hit;
        allValid &= tags[w];
    }
    if (hit != ways_) {
        // access()'s hit: touch, dirty on a store, consume the
        // prefetched mark.
        stamps[hit] = ++stamp_;
        tags[hit] = (tags[hit] & ~kPrefetched) | (isStore ? kDirty : 0);
        hits_.inc();
        return;
    }
    // fill()'s victim: the first invalid way, else the first way
    // with the oldest stamp.
    unsigned victim = 0;
    if (allValid & kValid) {
        uint64_t oldest = stamps[0];
        for (unsigned w = 1; w < ways_; ++w) {
            if (stamps[w] < oldest) {
                victim = w;
                oldest = stamps[w];
            }
        }
    } else {
        while (tags[victim] & kValid)
            ++victim;
    }
    misses_.inc();
    tags[victim] = want | (isStore ? kDirty : 0);
    stamps[victim] = ++stamp_;
}

} // namespace memsec::cache

#endif // MEMSEC_CACHE_CACHE_HH
