/**
 * @file
 * Set-associative cache model with LRU replacement.
 *
 * Used for the L1 instruction and data caches of the modeled core. Only
 * hit/miss behaviour is modeled (no MSHRs or bandwidth); the Core charges
 * a fixed partially-overlapped penalty per miss.
 *
 * Two hot-path shortcuts keep the per-instruction cost low without
 * changing any observable state: a per-set MRU pointer is probed before
 * the associative scan, and accessN() folds a run of same-line probes
 * (straight-line fetch) into one lookup. Both are bit-identical to the
 * naive probe loop.
 */

#ifndef XLVM_SIM_CACHE_H
#define XLVM_SIM_CACHE_H

#include <cstdint>
#include <vector>

namespace xlvm {
namespace sim {

struct CacheParams
{
    uint32_t sizeBytes = 32 * 1024;
    uint32_t lineBytes = 64;
    uint32_t ways = 8;
};

/** Simple LRU set-associative cache. */
class Cache
{
  public:
    explicit Cache(const CacheParams &p = CacheParams());

    /** Access one address; returns true on hit (and updates state). */
    bool access(uint64_t addr) { return accessN(addr, 1); }

    /**
     * Access the same line @p n times back to back (consecutive fetches
     * from one straight-line block). State and counters end up exactly
     * as n individual access() calls would leave them: at most the first
     * probe can miss, the LRU clock advances by n, and the line's
     * last-use stamp is the final clock value.
     * @return true if the first probe hit.
     */
    bool accessN(uint64_t addr, uint32_t n);

    uint64_t hits() const { return nHits; }
    uint64_t misses() const { return nMisses; }

    uint32_t lineBytes() const { return 1u << lineShift; }

    void resetStats() { nHits = nMisses = 0; }

    /** Full reset: counters, contents, LRU clock, MRU pointers. */
    void reset();

  private:
    struct Way
    {
        uint64_t tag = ~0ull;
        uint32_t lastUse = 0;
        bool valid = false;
    };

    std::vector<Way> ways_;
    /** Per-set index of the most recently hit/filled way. */
    std::vector<uint8_t> mru_;
    uint32_t numSets;
    uint32_t numWays;
    uint32_t lineShift;
    uint32_t useClock = 0;
    uint64_t nHits = 0;
    uint64_t nMisses = 0;
};

} // namespace sim
} // namespace xlvm

#endif // XLVM_SIM_CACHE_H
