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
    lines_.resize(lines);
}

Cache::Line *
Cache::find(Addr addr)
{
    Line *set = setOf(addr);
    // Dirty and prefetched are the only bits allowed to differ.
    const uint64_t want = kValid | tagOf(addr);
    for (unsigned w = 0; w < ways_; ++w) {
        if ((set[w].tagFlags & ~(kDirty | kPrefetched)) == want)
            return &set[w];
    }
    return nullptr;
}

const Cache::Line *
Cache::find(Addr addr) const
{
    return const_cast<Cache *>(this)->find(addr);
}

AccessResult
Cache::access(Addr addr, bool isStore)
{
    AccessResult res;
    if (Line *line = find(addr)) {
        line->lruStamp = ++stamp_;
        if (isStore)
            line->tagFlags |= kDirty;
        if (line->tagFlags & kPrefetched) {
            res.prefetchHit = true;
            line->tagFlags &= ~kPrefetched;
        }
        hits_.inc();
        res.hit = true;
        return res;
    }
    misses_.inc();
    return res;
}

bool
Cache::contains(Addr addr) const
{
    return find(addr) != nullptr;
}

FillResult
Cache::fill(Addr addr, bool dirty, bool prefetched)
{
    FillResult res;
    if (Line *line = find(addr)) {
        // Already present (e.g. prefetch raced a demand fill).
        if (dirty)
            line->tagFlags |= kDirty;
        return res;
    }
    Line *set = setOf(addr);
    Line *victim = set;
    for (unsigned w = 0; w < ways_; ++w) {
        if (!(set[w].tagFlags & kValid)) {
            victim = &set[w];
            break;
        }
        if (set[w].lruStamp < victim->lruStamp)
            victim = &set[w];
    }
    if ((victim->tagFlags & (kValid | kDirty)) == (kValid | kDirty)) {
        res.evictedDirty = true;
        res.writebackAddr =
            (((victim->tagFlags & ~kFlags) << setBits_) | setIndex(addr)) *
            kLineBytes;
    }
    victim->tagFlags = tagOf(addr) | kValid | (dirty ? kDirty : 0) |
                       (prefetched ? kPrefetched : 0);
    victim->lruStamp = ++stamp_;
    return res;
}

void
Cache::accessOrFill(Addr addr, bool isStore)
{
    Line *set = setOf(addr);
    const uint64_t want = kValid | tagOf(addr);
    // fill()'s victim: the first invalid way, else the first way
    // with the oldest stamp.
    Line *invalid = nullptr;
    Line *oldest = set;
    for (unsigned w = 0; w < ways_; ++w) {
        Line &line = set[w];
        if ((line.tagFlags & ~(kDirty | kPrefetched)) == want) {
            // access()'s hit: touch, dirty on a store, consume the
            // prefetched mark.
            line.lruStamp = ++stamp_;
            line.tagFlags = (line.tagFlags & ~kPrefetched) |
                            (isStore ? kDirty : 0);
            hits_.inc();
            return;
        }
        if (!(line.tagFlags & kValid)) {
            if (invalid == nullptr)
                invalid = &line;
        } else if (line.lruStamp < oldest->lruStamp) {
            oldest = &line;
        }
    }
    misses_.inc();
    Line *victim = invalid != nullptr ? invalid : oldest;
    victim->tagFlags = want | (isStore ? kDirty : 0);
    victim->lruStamp = ++stamp_;
}

void
Cache::markDirty(Addr addr)
{
    if (Line *line = find(addr))
        line->tagFlags |= kDirty;
}

template <class Self, class Ar>
void
Cache::io(Self &self, Ar &ar)
{
    ar.section("cache");
    ar.expect(self.numSets_, "cache set count mismatch");
    for (auto &line : self.lines_) {
        uint64_t tag = line.tagFlags & ~kFlags;
        bool valid = line.tagFlags & kValid;
        bool dirty = line.tagFlags & kDirty;
        bool prefetched = line.tagFlags & kPrefetched;
        ar.io(tag, valid, dirty, prefetched, line.lruStamp);
        if constexpr (Ar::loading) {
            if (tag & kFlags)
                ar.fail("cache tag out of range");
            line.tagFlags = tag | (valid ? kValid : 0) |
                            (dirty ? kDirty : 0) |
                            (prefetched ? kPrefetched : 0);
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
