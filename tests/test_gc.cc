#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "gc/heap.h"
#include "sim/core.h"

namespace xlvm {
namespace gc {
namespace {

// The header is vptr + type id + flags + data-address slot + alloc id.
// Many object types report sizeof-based heapBytes(), which feeds GC
// timing (the nursery watermark and promoted-byte costs), so a bigger
// header would move modeled counters.
static_assert(sizeof(GcObject) == 24, "GcObject header must stay 24 bytes");

/** Test object: a node with up to two child references and a payload. */
class Node : public GcObject
{
  public:
    explicit Node(size_t payload = 0) : payloadBytes(payload)
    {
        ++liveCount;
    }
    ~Node() override { --liveCount; }

    void
    traceRefs(GcVisitor &v) override
    {
        v.visit(left);
        v.visit(right);
    }

    size_t heapBytes() const override { return sizeof(Node) + payloadBytes; }

    Node *left = nullptr;
    Node *right = nullptr;
    size_t payloadBytes;

    static int liveCount;
};

int Node::liveCount = 0;

/** Simple explicit root list. */
class Roots : public RootProvider
{
  public:
    void
    forEachRoot(GcVisitor &v) override
    {
        for (Node *n : pinned)
            v.visit(n);
    }
    std::vector<Node *> pinned;
};

class HeapTest : public ::testing::Test
{
  protected:
    HeapTest()
    {
        Node::liveCount = 0;
        params.nurseryBytes = 4096;
        heap = std::make_unique<Heap>(params);
        heap->addRootProvider(&roots);
    }

    HeapParams params;
    std::unique_ptr<Heap> heap;
    Roots roots;
};

TEST_F(HeapTest, UnreachableYoungObjectsFreedByMinor)
{
    for (int i = 0; i < 10; ++i)
        heap->alloc<Node>();
    EXPECT_EQ(Node::liveCount, 10);
    heap->collect();
    EXPECT_EQ(Node::liveCount, 0);
    EXPECT_EQ(heap->stats().minorCollections, 1u);
}

TEST_F(HeapTest, RootedObjectsSurviveAndArePromoted)
{
    Node *a = heap->alloc<Node>();
    roots.pinned.push_back(a);
    heap->alloc<Node>(); // garbage
    heap->collect();
    EXPECT_EQ(Node::liveCount, 1);
    EXPECT_TRUE(a->isOld());
    EXPECT_EQ(heap->oldObjectCount(), 1u);
    EXPECT_EQ(heap->youngObjectCount(), 0u);
}

TEST_F(HeapTest, TransitiveReachabilityViaFields)
{
    Node *a = heap->alloc<Node>();
    Node *b = heap->alloc<Node>();
    Node *c = heap->alloc<Node>();
    a->left = b;
    b->right = c;
    roots.pinned.push_back(a);
    heap->collect();
    EXPECT_EQ(Node::liveCount, 3);
}

TEST_F(HeapTest, WriteBarrierKeepsOldToYoungAlive)
{
    Node *parent = heap->alloc<Node>();
    roots.pinned.push_back(parent);
    heap->collect(); // promote parent
    ASSERT_TRUE(parent->isOld());

    Node *child = heap->alloc<Node>();
    parent->left = child;
    heap->writeBarrier(parent);
    // Child is only reachable through the old parent.
    heap->collect();
    EXPECT_EQ(Node::liveCount, 2);
    EXPECT_TRUE(child->isOld());
}

TEST_F(HeapTest, MissingWriteBarrierWouldLoseObject)
{
    // Documents why the barrier is required: without it, a young object
    // referenced only from an old object is collected.
    Node *parent = heap->alloc<Node>();
    roots.pinned.push_back(parent);
    heap->collect();
    Node *child = heap->alloc<Node>();
    parent->left = child;
    // No writeBarrier call on purpose.
    heap->collect();
    EXPECT_EQ(Node::liveCount, 1);
    parent->left = nullptr; // don't leave a dangling ref around
}

TEST_F(HeapTest, SafepointTriggersOnWatermark)
{
    // Allocate beyond the nursery size with big payloads.
    for (int i = 0; i < 10; ++i)
        heap->alloc<Node>(1024);
    EXPECT_TRUE(heap->collectionNeeded());
    heap->safepoint();
    EXPECT_EQ(heap->stats().minorCollections, 1u);
    EXPECT_FALSE(heap->collectionNeeded());
}

TEST_F(HeapTest, MajorCollectionFreesOldGarbage)
{
    Node *a = heap->alloc<Node>();
    roots.pinned.push_back(a);
    heap->collect();
    ASSERT_TRUE(a->isOld());
    roots.pinned.clear(); // now old garbage
    heap->collectMajor();
    EXPECT_EQ(Node::liveCount, 0);
    EXPECT_EQ(heap->oldObjectCount(), 0u);
    EXPECT_EQ(heap->stats().majorCollections, 1u);
}

TEST_F(HeapTest, MajorTriggeredByGrowth)
{
    params.majorMinBytes = 2048;
    heap = std::make_unique<Heap>(params);
    heap->addRootProvider(&roots);
    // Promote a lot of live data repeatedly to push oldBytes up.
    for (int round = 0; round < 50; ++round) {
        Node *n = heap->alloc<Node>(512);
        roots.pinned.push_back(n);
        heap->collect();
        if (round == 20)
            roots.pinned.clear(); // old garbage accumulates
    }
    EXPECT_GE(heap->stats().majorCollections, 1u);
}

TEST_F(HeapTest, CyclesAreCollected)
{
    Node *a = heap->alloc<Node>();
    Node *b = heap->alloc<Node>();
    a->left = b;
    b->left = a; // cycle, unreachable
    heap->collect();
    EXPECT_EQ(Node::liveCount, 0);
}

TEST_F(HeapTest, CyclesSurviveWhenRooted)
{
    Node *a = heap->alloc<Node>();
    Node *b = heap->alloc<Node>();
    a->left = b;
    b->left = a;
    roots.pinned.push_back(a);
    heap->collect();
    EXPECT_EQ(Node::liveCount, 2);
}

struct CountingHooks : public GcHooks
{
    int starts = 0;
    int ends = 0;
    GcCollectionStats last;
    void onCollectStart(bool) override { ++starts; }
    void
    onCollectEnd(const GcCollectionStats &s) override
    {
        ++ends;
        last = s;
    }
};

TEST_F(HeapTest, HooksReceiveStats)
{
    CountingHooks hooks;
    heap->setHooks(&hooks);
    Node *a = heap->alloc<Node>(100);
    roots.pinned.push_back(a);
    heap->alloc<Node>(200); // garbage
    heap->collect();
    EXPECT_EQ(hooks.starts, 1);
    EXPECT_EQ(hooks.ends, 1);
    EXPECT_FALSE(hooks.last.major);
    EXPECT_EQ(hooks.last.objectsFreed, 1u);
    EXPECT_GT(hooks.last.bytesPromoted, 100u);
}

TEST_F(HeapTest, NoteExtraBytesAdvancesWatermark)
{
    heap->alloc<Node>();
    EXPECT_FALSE(heap->collectionNeeded());
    heap->noteExtraBytes(params.nurseryBytes);
    EXPECT_TRUE(heap->collectionNeeded());
}

TEST_F(HeapTest, RemovedRootProviderNotScanned)
{
    Node *a = heap->alloc<Node>();
    roots.pinned.push_back(a);
    heap->removeRootProvider(&roots);
    heap->collect();
    EXPECT_EQ(Node::liveCount, 0);
    roots.pinned.clear();
    heap->addRootProvider(&roots); // restore for fixture teardown
}

/**
 * Leaf object whose storage is one static buffer, so the allocation
 * after a free lands at the same host address on any allocator
 * (sanitizer quarantines included).
 */
class Recycled : public GcObject
{
  public:
    static void *
    operator new(size_t)
    {
        EXPECT_FALSE(inUse);
        inUse = true;
        return storage;
    }
    static void operator delete(void *) { inUse = false; }

    void traceRefs(GcVisitor &) override {}
    size_t heapBytes() const override { return sizeof(Recycled); }

  private:
    static inline bool inUse = false;
    alignas(std::max_align_t) static inline unsigned char storage[64];
};

TEST(DataAddr, ObjectAtRecycledAddressGetsFreshLine)
{
    Heap heap;
    sim::Core core;
    Recycled *a = heap.alloc<Recycled>();
    const uintptr_t hostA = reinterpret_cast<uintptr_t>(a);
    const uint64_t lineA = core.dataAddr(a);
    EXPECT_EQ(core.dataAddr(a), lineA); // stable while alive
    heap.collect();                     // unrooted: freed by the minor
    ASSERT_EQ(heap.stats().totalFreed, 1u);

    Recycled *b = heap.alloc<Recycled>();
    ASSERT_EQ(reinterpret_cast<uintptr_t>(b), hostA);
    // The slot left with the dead object: the newcomer draws the next
    // line in first-access order instead of aliasing the old one.
    EXPECT_EQ(core.dataAddr(b), lineA + sim::DataAddrSpace::kSlotBytes);
    // Non-GC pointers share the same first-access numbering.
    EXPECT_EQ(core.dataAddr(static_cast<const void *>(&heap)),
              lineA + 2 * sim::DataAddrSpace::kSlotBytes);
}

} // namespace
} // namespace gc
} // namespace xlvm
