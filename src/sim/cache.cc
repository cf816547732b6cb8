#include "sim/cache.h"

#include <algorithm>

#include "common/logging.h"

namespace xlvm {
namespace sim {

namespace {

inline uint32_t
log2u(uint32_t x)
{
    uint32_t r = 0;
    while ((1u << r) < x)
        ++r;
    return r;
}

} // namespace

Cache::Cache(const CacheParams &p)
{
    XLVM_ASSERT(p.lineBytes && (p.lineBytes & (p.lineBytes - 1)) == 0,
                "line size must be a power of 2");
    numWays = p.ways;
    uint32_t lines = p.sizeBytes / p.lineBytes;
    XLVM_ASSERT(lines % p.ways == 0, "cache geometry mismatch");
    numSets = lines / p.ways;
    XLVM_ASSERT((numSets & (numSets - 1)) == 0, "sets must be power of 2");
    lineShift = log2u(p.lineBytes);
    ways_.resize(numSets * numWays);
    mru_.resize(numSets, 0);
}

bool
Cache::accessSlow(uint64_t line, uint32_t n)
{
    uint32_t set = static_cast<uint32_t>(line) & (numSets - 1);
    uint64_t tag = line >> 1; // keep some set bits in the tag; cheap
    Way *base = &ways_[set * numWays];
    useClock += n;

    // MRU fast path: straight-line and loopy code mostly re-touches the
    // way it hit last time, skipping the associative scan.
    uint32_t m = mru_[set];
    lastLine = line;
    if (base[m].valid && base[m].tag == tag) {
        base[m].lastUse = useClock;
        lastWay = set * numWays + m;
        nHits += n;
        return true;
    }

    for (uint32_t w = 0; w < numWays; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            base[w].lastUse = useClock;
            mru_[set] = uint8_t(w);
            lastWay = set * numWays + w;
            nHits += n;
            return true;
        }
    }

    // Miss: fill LRU way. The n-1 follow-up probes of a batched access
    // hit the just-filled line.
    uint32_t victim = 0;
    uint32_t oldest = base[0].lastUse;
    for (uint32_t w = 0; w < numWays; ++w) {
        if (!base[w].valid) {
            victim = w;
            break;
        }
        if (base[w].lastUse < oldest) {
            oldest = base[w].lastUse;
            victim = w;
        }
    }
    base[victim].valid = true;
    base[victim].tag = tag;
    base[victim].lastUse = useClock;
    mru_[set] = uint8_t(victim);
    lastWay = set * numWays + victim;
    ++nMisses;
    nHits += n - 1;
    return false;
}

void
Cache::reset()
{
    std::fill(ways_.begin(), ways_.end(), Way());
    std::fill(mru_.begin(), mru_.end(), uint8_t(0));
    useClock = 0;
    lastLine = kNoLine;
    nHits = nMisses = 0;
}

} // namespace sim
} // namespace xlvm
