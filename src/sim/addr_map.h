/**
 * @file
 * Deterministic data-address virtualization.
 *
 * The VM layers model data accesses with the host addresses of the C++
 * objects backing simulated values. Host addresses depend on ASLR and on
 * which malloc arena a thread happens to draw from, so cache set mapping
 * — and with it every reported cycle count — varied from process to
 * process and, once runs execute on worker threads, with the thread
 * interleaving. DataAddrSpace removes that dependence: each distinct
 * object is assigned a synthetic line-aligned address in first-access
 * order, which is a property of the simulated program alone. Identical
 * runs therefore produce bit-identical counters no matter where the host
 * allocator placed the objects.
 *
 * Two kinds of object draw from one slot counter:
 *  - GC objects keep their slot in their own header (translateSlot).
 *    The slot dies with the object, so a new object at a recycled host
 *    address starts unassigned and draws a fresh line instead of
 *    aliasing the dead object's cache footprint. No free hook is needed.
 *  - Every other pointer (the interpreter, its frame stack, the
 *    execution environment) lives for the whole run and goes through
 *    the pointer map (translate).
 */

#ifndef XLVM_SIM_ADDR_MAP_H
#define XLVM_SIM_ADDR_MAP_H

#include <cstdint>
#include <unordered_map>

#include "common/logging.h"

namespace xlvm {
namespace sim {

class DataAddrSpace
{
  public:
    /** Synthetic data segment; far above every CodeSpace segment. */
    static constexpr uint64_t kBase = 1ull << 40;
    /** Each translated object owns one line-sized slot. */
    static constexpr uint64_t kSlotBytes = 64;

    /** Map a non-GC host pointer to its stable synthetic address. */
    uint64_t
    translate(const void *p)
    {
        uintptr_t key = reinterpret_cast<uintptr_t>(p);
        uint32_t slot = cacheSlot(key);
        if (cacheKeys[slot] == key)
            return cacheVals[slot];
        uint64_t v;
        auto it = map.find(key);
        if (it != map.end()) {
            v = it->second;
        } else {
            v = kBase + nextSlot++ * kSlotBytes;
            map.emplace(key, v);
        }
        cacheKeys[slot] = key;
        cacheVals[slot] = v;
        return v;
    }

    /**
     * Synthetic address of an object that keeps its own @p slot (slot +
     * 1; 0 = unassigned). The first call draws the next slot, in the
     * same first-access order as translate().
     */
    uint64_t
    translateSlot(uint32_t &slot)
    {
        if (slot == 0) {
            XLVM_ASSERT(nextSlot < UINT32_MAX, "data address slots exhausted");
            slot = uint32_t(++nextSlot);
        }
        return kBase + uint64_t(slot - 1) * kSlotBytes;
    }

  private:
    static constexpr uint32_t kCacheEntries = 256;

    static uint32_t
    cacheSlot(uintptr_t key)
    {
        // Host allocations are >= 16-byte aligned; drop the dead bits.
        return uint32_t(key >> 4) & (kCacheEntries - 1);
    }

    /** Direct-mapped front cache: the dispatch loop re-translates the
     *  same few pointers (interpreter, frame stack) over and over. */
    uintptr_t cacheKeys[kCacheEntries] = {};
    uint64_t cacheVals[kCacheEntries] = {};
    std::unordered_map<uintptr_t, uint64_t> map;
    uint64_t nextSlot = 0;
};

} // namespace sim
} // namespace xlvm

#endif // XLVM_SIM_ADDR_MAP_H
