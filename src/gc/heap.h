/**
 * @file
 * Generational garbage collector.
 *
 * Models RPython's incminimark GC at the level the paper characterizes:
 * a nursery with cheap allocation, frequent minor collections that promote
 * survivors into an old generation, occasional full (major) collections,
 * shadow-stack root enumeration, and an old-to-young write barrier with a
 * remembered set.
 *
 * Implementation choice: the heap is *non-moving* (objects are real C++
 * objects holding std containers, so memcpy evacuation would be UB), but
 * the *cost model* is that of a copying nursery: survivors are charged
 * per-byte "copy" work through GcHooks, so GC time scales with survivor
 * bytes exactly as in the modeled system. Collections run only at
 * safepoints (dispatch-loop and trace-label boundaries), where the
 * registered root providers cover every live reference — the analog of
 * RPython's shadowstack discipline.
 */

#ifndef XLVM_GC_HEAP_H
#define XLVM_GC_HEAP_H

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace xlvm {
namespace gc {

class GcVisitor;
class Heap;

/** Base class of every collected object. */
class GcObject
{
  public:
    virtual ~GcObject() = default;

    /** Visit every GcObject* the object holds. */
    virtual void traceRefs(GcVisitor &v) = 0;

    /** Approximate heap footprint (object + owned payload), in bytes. */
    virtual size_t heapBytes() const = 0;

    uint16_t gcTypeId = 0; ///< set by the object layer; used for stats

    bool isMarked() const { return gcFlags & kMarked; }
    bool isOld() const { return gcFlags & kOld; }
    bool inRemSet() const { return gcFlags & kRemembered; }

    /**
     * Allocation ordinal within the owning heap (1-based; 0 = never
     * heap-allocated). Identity hashing uses this instead of the host
     * address so hash-probe sequences are reproducible across runs and
     * across worker threads.
     */
    uint64_t allocId() const { return allocSeq; }

    /**
     * The object's synthetic data-address slot, kept in the header for
     * the simulated core (see sim::DataAddrSpace::translateSlot): slot
     * + 1, or 0 until the first translate. It lives and dies with the
     * object, so a new object at a recycled host address starts
     * unassigned and draws a fresh line.
     */
    uint32_t &dataAddrSlot() const { return dataSlot; }

  private:
    friend class Heap;
    friend class GcVisitor;
    static constexpr uint8_t kMarked = 1;
    static constexpr uint8_t kOld = 2;
    static constexpr uint8_t kRemembered = 4;
    uint8_t gcFlags = 0;
    // Sits in the padding before allocSeq: the header stays 24 bytes.
    mutable uint32_t dataSlot = 0;
    uint64_t allocSeq = 0;
};

/** Mark-phase visitor handed to traceRefs. */
class GcVisitor
{
  public:
    explicit GcVisitor(bool minor) : minorOnly(minor) {}

    /** Visit one (possibly null) reference. */
    void
    visit(GcObject *o)
    {
        if (!o || (o->gcFlags & GcObject::kMarked))
            return;
        if (minorOnly && (o->gcFlags & GcObject::kOld))
            return; // old objects are boundary nodes in a minor collection
        o->gcFlags |= GcObject::kMarked;
        worklist.push_back(o);
        ++visited;
    }

    uint64_t visitedCount() const { return visited; }

  private:
    friend class Heap;
    bool minorOnly;
    std::vector<GcObject *> worklist;
    uint64_t visited = 0;
};

/** Enumerates live references at a safepoint (shadow-stack analog). */
class RootProvider
{
  public:
    virtual ~RootProvider() = default;
    virtual void forEachRoot(GcVisitor &v) = 0;
};

/** Statistics reported to the instrumentation hooks per collection. */
struct GcCollectionStats
{
    bool major = false;
    uint64_t objectsScanned = 0;
    uint64_t bytesPromoted = 0;  ///< survivor bytes ("copied" cost)
    uint64_t objectsFreed = 0;
    uint64_t bytesFreed = 0;
};

/**
 * Cost/annotation hooks implemented by the VM layer; called around each
 * collection so GC work can be charged to the GC phase.
 */
class GcHooks
{
  public:
    virtual ~GcHooks() = default;
    virtual void onCollectStart(bool major) = 0;
    virtual void onCollectEnd(const GcCollectionStats &stats) = 0;
};

struct HeapParams
{
    uint64_t nurseryBytes = 512 * 1024;
    /** Major GC when oldBytes exceeds this factor of the post-major floor. */
    double majorGrowthFactor = 1.82;
    uint64_t majorMinBytes = 4 * 1024 * 1024;
};

class Heap
{
  public:
    explicit Heap(const HeapParams &p = HeapParams());
    ~Heap();

    Heap(const Heap &) = delete;
    Heap &operator=(const Heap &) = delete;

    /**
     * Construct a collected object. The object is young until it survives
     * a collection. Never triggers a collection inline — collection
     * happens only via safepoint().
     */
    template <typename T, typename... Args>
    T *
    alloc(Args &&...args)
    {
        T *obj = new T(std::forward<Args>(args)...);
        young.push_back(obj);
        youngBytes += obj->heapBytes();
        obj->allocSeq = ++stats_.allocations;
        return obj;
    }

    /** Account payload growth after allocation (e.g., list resize). */
    void noteExtraBytes(uint64_t bytes) { youngBytes += bytes; }

    /**
     * Old-to-young write barrier: call after storing a reference into
     * @p owner. Adds old owners to the remembered set.
     */
    void
    writeBarrier(GcObject *owner)
    {
        if (owner->isOld() && !(owner->gcFlags & GcObject::kRemembered)) {
            owner->gcFlags |= GcObject::kRemembered;
            remSet.push_back(owner);
        }
    }

    /** True if the nursery watermark has been reached. */
    bool collectionNeeded() const { return youngBytes >= params.nurseryBytes; }

    /**
     * Safepoint: collect if needed. All roots must be registered. This is
     * the only place collections happen.
     */
    void
    safepoint()
    {
        if (collectionNeeded())
            collect();
    }

    /** Force a collection (minor, escalating to major when due). */
    void collect();

    /** Force a full major collection. */
    void collectMajor();

    void addRootProvider(RootProvider *rp) { roots.push_back(rp); }
    void removeRootProvider(RootProvider *rp);

    void setHooks(GcHooks *h) { hooks = h; }

    struct HeapStats
    {
        uint64_t allocations = 0;
        uint64_t minorCollections = 0;
        uint64_t majorCollections = 0;
        uint64_t totalPromotedBytes = 0;
        uint64_t totalFreed = 0;
    };

    const HeapStats &stats() const { return stats_; }
    uint64_t youngByteCount() const { return youngBytes; }
    uint64_t oldByteCount() const { return oldBytes; }
    size_t youngObjectCount() const { return young.size(); }
    size_t oldObjectCount() const { return old.size(); }

  private:
    void collectMinor();
    void markFromRoots(GcVisitor &v);
    void drain(GcVisitor &v);

    HeapParams params;
    std::vector<GcObject *> young;
    std::vector<GcObject *> old;
    std::vector<GcObject *> remSet;
    std::vector<RootProvider *> roots;
    GcHooks *hooks = nullptr;
    uint64_t youngBytes = 0;
    uint64_t oldBytes = 0;
    uint64_t majorThreshold;
    HeapStats stats_;
};

} // namespace gc
} // namespace xlvm

#endif // XLVM_GC_HEAP_H
