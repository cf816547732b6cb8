/**
 * @file
 * Set-associative cache model with LRU replacement.
 *
 * Used for the L1 instruction and data caches of the modeled core. Only
 * hit/miss behaviour is modeled (no MSHRs or bandwidth); the Core charges
 * a fixed partially-overlapped penalty per miss.
 *
 * Three hot-path shortcuts keep the per-instruction cost low without
 * changing any observable state, each bit-identical to the naive probe
 * loop:
 *  - accessN() folds a run of same-line probes (straight-line fetch)
 *    into one lookup;
 *  - an access to the same line as the previous access is an inline hit
 *    (nothing has touched the cache since, so the line is still resident
 *    in the remembered way); everything else goes to accessSlow();
 *  - accessSlow() probes the set's MRU way before the associative scan.
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
    bool
    accessN(uint64_t addr, uint32_t n)
    {
        uint64_t line = addr >> lineShift;
        if (line == lastLine) {
            useClock += n;
            ways_[lastWay].lastUse = useClock;
            nHits += n;
            return true;
        }
        return accessSlow(line, n);
    }

    uint64_t hits() const { return nHits; }
    uint64_t misses() const { return nMisses; }

    uint32_t lineBytes() const { return 1u << lineShift; }

    void resetStats() { nHits = nMisses = 0; }

    /** Full reset: counters, contents, LRU clock, MRU pointers and the
     *  same-line check. */
    void reset();

  private:
    /** No previous access (an address whose line is all ones is never
     *  probed). */
    static constexpr uint64_t kNoLine = ~0ull;

    /** Set lookup, MRU probe, associative scan and LRU fill. */
    bool accessSlow(uint64_t line, uint32_t n);

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
    /** Line of the previous access and the index in ways_ it sits in. */
    uint64_t lastLine = kNoLine;
    uint32_t lastWay = 0;
    uint64_t nHits = 0;
    uint64_t nMisses = 0;
};

} // namespace sim
} // namespace xlvm

#endif // XLVM_SIM_CACHE_H
