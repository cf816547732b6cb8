#include "gc/heap.h"

#include <algorithm>

namespace xlvm {
namespace gc {

Heap::Heap(const HeapParams &p)
    : params(p), majorThreshold(p.majorMinBytes)
{
}

Heap::~Heap()
{
    for (GcObject *o : young)
        delete o;
    for (GcObject *o : old)
        delete o;
}

void
Heap::removeRootProvider(RootProvider *rp)
{
    roots.erase(std::remove(roots.begin(), roots.end(), rp), roots.end());
}

void
Heap::markFromRoots(GcVisitor &v)
{
    for (RootProvider *rp : roots)
        rp->forEachRoot(v);
}

void
Heap::drain(GcVisitor &v)
{
    while (!v.worklist.empty()) {
        GcObject *o = v.worklist.back();
        v.worklist.pop_back();
        o->traceRefs(v);
    }
}

void
Heap::collect()
{
    collectMinor();
    if (oldBytes >= majorThreshold)
        collectMajor();
}

void
Heap::collectMinor()
{
    if (hooks)
        hooks->onCollectStart(false);

    GcVisitor v(/*minor=*/true);
    markFromRoots(v);
    // Remembered set: children of old objects that received stores since
    // the last minor collection are additional roots.
    for (GcObject *o : remSet) {
        o->gcFlags &= ~GcObject::kRemembered;
        o->traceRefs(v);
    }
    remSet.clear();
    drain(v);

    GcCollectionStats cs;
    cs.major = false;
    cs.objectsScanned = v.visitedCount();

    for (GcObject *o : young) {
        if (o->gcFlags & GcObject::kMarked) {
            o->gcFlags &= ~GcObject::kMarked;
            o->gcFlags |= GcObject::kOld;
            uint64_t bytes = o->heapBytes();
            cs.bytesPromoted += bytes;
            oldBytes += bytes;
            old.push_back(o);
        } else {
            ++cs.objectsFreed;
            cs.bytesFreed += o->heapBytes();
            delete o;
        }
    }
    young.clear();
    youngBytes = 0;

    ++stats_.minorCollections;
    stats_.totalPromotedBytes += cs.bytesPromoted;
    stats_.totalFreed += cs.objectsFreed;

    if (hooks)
        hooks->onCollectEnd(cs);
}

void
Heap::collectMajor()
{
    if (hooks)
        hooks->onCollectStart(true);

    GcVisitor v(/*minor=*/false);
    markFromRoots(v);
    drain(v);

    GcCollectionStats cs;
    cs.major = true;
    cs.objectsScanned = v.visitedCount();

    // Remembered flags become stale across a major collection; clear them
    // (surviv' entries re-register through the write barrier).
    for (GcObject *o : remSet)
        o->gcFlags &= ~GcObject::kRemembered;
    remSet.clear();

    // Recompute old-space byte occupancy from scratch during the sweep.
    oldBytes = 0;
    std::vector<GcObject *> oldSpace;
    oldSpace.swap(old);
    for (GcObject *o : oldSpace) {
        if (o->gcFlags & GcObject::kMarked) {
            o->gcFlags &= ~GcObject::kMarked;
            oldBytes += o->heapBytes();
            old.push_back(o);
        } else {
            ++cs.objectsFreed;
            cs.bytesFreed += o->heapBytes();
            delete o;
        }
    }
    // Young survivors are promoted during a major collection as well.
    for (GcObject *o : young) {
        if (o->gcFlags & GcObject::kMarked) {
            o->gcFlags &= ~GcObject::kMarked;
            o->gcFlags |= GcObject::kOld;
            uint64_t bytes = o->heapBytes();
            cs.bytesPromoted += bytes;
            oldBytes += bytes;
            old.push_back(o);
        } else {
            ++cs.objectsFreed;
            cs.bytesFreed += o->heapBytes();
            delete o;
        }
    }
    young.clear();
    youngBytes = 0;

    majorThreshold = std::max<uint64_t>(
        params.majorMinBytes,
        uint64_t(double(oldBytes) * params.majorGrowthFactor));

    ++stats_.majorCollections;
    stats_.totalPromotedBytes += cs.bytesPromoted;
    stats_.totalFreed += cs.objectsFreed;

    if (hooks)
        hooks->onCollectEnd(cs);
}

} // namespace gc
} // namespace xlvm
