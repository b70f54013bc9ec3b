#include "cache/cache.hh"

#include "util/bitops.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::cache {

Cache::Cache(uint64_t sizeBytes, unsigned ways) : ways_(ways)
{
    fatal_if(ways == 0, "cache needs at least one way");
    const uint64_t lines = sizeBytes / kLineBytes;
    fatal_if(lines < ways || lines % ways != 0,
             "cache size {} not divisible into {} ways", sizeBytes, ways);
    numSets_ = lines / ways;
    fatal_if(!isPowerOf2(numSets_), "cache set count must be a power of two");
    setBits_ = floorLog2(numSets_);
    words_.resize(2 * lines);
}

FillResult
Cache::fill(Addr addr, bool dirty, bool prefetched)
{
    FillResult res;
    if (uint64_t *tag = find(addr)) {
        // Already present (e.g. prefetch raced a demand fill).
        if (dirty)
            *tag |= kDirty;
        return res;
    }
    uint64_t *tags = setOf(addr);
    const uint64_t *stamps = tags + ways_;
    unsigned victim = 0;
    for (unsigned w = 0; w < ways_; ++w) {
        if (!(tags[w] & kValid)) {
            victim = w;
            break;
        }
        if (stamps[w] < stamps[victim])
            victim = w;
    }
    if ((tags[victim] & (kValid | kDirty)) == (kValid | kDirty)) {
        res.evictedDirty = true;
        res.writebackAddr =
            (((tags[victim] & ~kFlags) << setBits_) | setIndex(addr)) *
            kLineBytes;
    }
    tags[victim] = tagOf(addr) | kValid | (dirty ? kDirty : 0) |
                   (prefetched ? kPrefetched : 0);
    tags[victim + ways_] = ++stamp_;
    return res;
}

void
Cache::markDirty(Addr addr)
{
    if (uint64_t *tag = find(addr))
        *tag |= kDirty;
}

template <class Self, class Ar>
void
Cache::io(Self &self, Ar &ar)
{
    ar.section("cache");
    ar.expect(self.numSets_, "cache set count mismatch");
    // Way by way in set order, each as (tag, valid, dirty,
    // prefetched, stamp): the layout-independent byte order.
    const size_t ways = self.ways_;
    for (size_t set = 0; set < self.words_.size(); set += 2 * ways) {
        for (size_t w = set; w < set + ways; ++w) {
            auto &tagFlags = self.words_[w];
            uint64_t tag = tagFlags & ~kFlags;
            bool valid = tagFlags & kValid;
            bool dirty = tagFlags & kDirty;
            bool prefetched = tagFlags & kPrefetched;
            ar.io(tag, valid, dirty, prefetched, self.words_[w + ways]);
            if constexpr (Ar::loading) {
                if (tag & kFlags)
                    ar.fail("cache tag out of range");
                tagFlags = tag | (valid ? kValid : 0) |
                           (dirty ? kDirty : 0) |
                           (prefetched ? kPrefetched : 0);
            }
        }
    }
    ar.io(self.stamp_, self.hits_, self.misses_);
}

void
Cache::saveState(Serializer &s) const
{
    io(*this, s);
}

void
Cache::restoreState(Deserializer &d)
{
    io(*this, d);
}

} // namespace memsec::cache
