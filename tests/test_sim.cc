#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "sim/branch_pred.h"
#include "sim/cache.h"
#include "sim/code_space.h"
#include "sim/core.h"
#include "sim/emitter.h"

namespace xlvm {
namespace sim {
namespace {

TEST(Cache, HitsAfterFill)
{
    Cache c;
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1004)); // same line
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, DistinctLinesMiss)
{
    Cache c;
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_FALSE(c.access(0x2000));
    EXPECT_TRUE(c.access(0x1000));
}

TEST(Cache, LruEviction)
{
    // 2-way, 2 sets, 64B lines => 256B cache.
    CacheParams p;
    p.sizeBytes = 256;
    p.lineBytes = 64;
    p.ways = 2;
    Cache c(p);
    // Three lines mapping to set 0 (line addr stride = 2 sets * 64).
    c.access(0 * 128);
    c.access(1 * 128);
    c.access(2 * 128);          // evicts line 0
    EXPECT_FALSE(c.access(0));  // must miss again
    EXPECT_TRUE(c.access(256)); // line 2 still resident
}

TEST(Cache, AccessNMatchesRepeatedAccess)
{
    // accessN(addr, n) must leave counters and replacement state exactly
    // as n back-to-back access(addr) calls would.
    CacheParams p;
    p.sizeBytes = 1024;
    p.lineBytes = 64;
    p.ways = 2;
    Cache batched(p), looped(p);
    Rng rng(42);
    for (int it = 0; it < 5000; ++it) {
        uint64_t addr = (rng.next() % 64) * 64;
        uint32_t n = 1 + rng.next() % 7;
        bool hitB = batched.accessN(addr, n);
        bool hitL = looped.access(addr);
        for (uint32_t i = 1; i < n; ++i)
            looped.access(addr);
        ASSERT_EQ(hitB, hitL) << "iteration " << it;
        ASSERT_EQ(batched.hits(), looped.hits()) << "iteration " << it;
        ASSERT_EQ(batched.misses(), looped.misses()) << "iteration " << it;
    }
}

/**
 * Naive LRU set-associative cache: one probe per access, a per-probe
 * clock, no shortcuts. The reference Cache must match it exactly.
 */
class RefLru
{
  public:
    RefLru(uint32_t sets, uint32_t ways)
        : sets_(sets), ways_(ways), slots(sets * ways)
    {
    }

    bool
    probe(uint64_t line)
    {
        Slot *base = &slots[(line & (sets_ - 1)) * ways_];
        ++clock;
        for (uint32_t w = 0; w < ways_; ++w) {
            if (base[w].valid && base[w].line == line) {
                base[w].lastUse = clock;
                ++hits;
                return true;
            }
        }
        uint32_t victim = 0;
        for (uint32_t w = 0; w < ways_; ++w) {
            if (!base[w].valid) {
                victim = w;
                break;
            }
            if (base[w].lastUse < base[victim].lastUse)
                victim = w;
        }
        base[victim] = {line, clock, true};
        ++misses;
        return false;
    }

    void
    reset()
    {
        *this = RefLru(sets_, ways_);
    }

    uint64_t hits = 0;
    uint64_t misses = 0;

  private:
    struct Slot
    {
        uint64_t line = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };
    uint32_t sets_, ways_;
    std::vector<Slot> slots;
    uint64_t clock = 0;
};

TEST(Cache, MatchesNaiveLruOnRandomStream)
{
    // Small geometry (4 sets x 4 ways) so set conflicts and evictions
    // are frequent. The stream mixes same-line runs (the inline
    // same-line hit), batched accessN(n > 1), lines that collide in one
    // set, jumps across the address space, and full resets, which must
    // also clear the same-line check.
    CacheParams p;
    p.sizeBytes = 1024;
    p.lineBytes = 64;
    p.ways = 4;
    const uint32_t sets = p.sizeBytes / p.lineBytes / p.ways;
    Cache c(p);
    RefLru ref(sets, p.ways);
    Rng rng(7);
    uint64_t addr = 0;
    uint64_t missesBeforeResets = 0;
    for (int it = 0; it < 200000; ++it) {
        uint64_t r = rng.nextBelow(100);
        if (r < 40) {
            addr += 4 * rng.nextBelow(4); // stay on or near the line
        } else if (r < 70) {
            // Another line of set 0: 6 candidates for 4 ways.
            addr = rng.nextBelow(6) * sets * p.lineBytes + rng.nextBelow(64);
        } else if (r < 99) {
            addr = rng.nextBelow(64) * p.lineBytes + rng.nextBelow(64);
        } else {
            missesBeforeResets += c.misses();
            c.reset();
            ref.reset();
        }
        uint32_t n = rng.nextBelow(4) == 0 ? 1 + uint32_t(rng.nextBelow(9))
                                           : 1;
        bool got = c.accessN(addr, n);
        uint64_t line = addr / p.lineBytes;
        bool want = ref.probe(line);
        for (uint32_t i = 1; i < n; ++i)
            ref.probe(line);
        ASSERT_EQ(got, want) << "access " << it;
        ASSERT_EQ(c.hits(), ref.hits) << "access " << it;
        ASSERT_EQ(c.misses(), ref.misses) << "access " << it;
    }
    EXPECT_GT(missesBeforeResets, 10000u);
}

TEST(Cache, FullResetRestoresColdState)
{
    Cache c;
    c.access(0x1000);
    c.access(0x1000);
    c.reset();
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_FALSE(c.access(0x1000)) << "line survived reset";
}

TEST(Gshare, LearnsAlwaysTaken)
{
    BranchPredParams p;
    GsharePredictor g(p);
    int correct = 0;
    for (int i = 0; i < 200; ++i)
        correct += g.predictAndUpdate(0x400000, true);
    // The first ~historyBits iterations walk fresh PHT entries while the
    // global history fills with 1s; after that prediction is perfect.
    EXPECT_GT(correct, 180);
}

TEST(Gshare, LearnsAlternatingPattern)
{
    BranchPredParams p;
    GsharePredictor g(p);
    int correct = 0;
    for (int i = 0; i < 2000; ++i)
        correct += g.predictAndUpdate(0x400000, i % 2 == 0);
    // With history the alternating pattern becomes highly predictable.
    EXPECT_GT(correct, 1800);
}

TEST(Indirect, LearnsStableTarget)
{
    BranchPredParams p;
    p.useHistoryForBtb = false;
    IndirectPredictor ip(p);
    EXPECT_FALSE(ip.predictAndUpdate(0x400000, 0x500000, 0));
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(ip.predictAndUpdate(0x400000, 0x500000, 0));
}

TEST(Indirect, ChangingTargetsMispredict)
{
    BranchPredParams p;
    p.useHistoryForBtb = false;
    IndirectPredictor ip(p);
    int correct = 0;
    for (int i = 0; i < 100; ++i)
        correct += ip.predictAndUpdate(0x400000, 0x500000 + (i % 7) * 64, 0);
    EXPECT_LT(correct, 30);
}

TEST(ReturnStack, MatchesCallReturn)
{
    BranchPredParams p;
    ReturnStack ras(p);
    ras.pushCall(0x1004);
    ras.pushCall(0x2004);
    EXPECT_TRUE(ras.predictReturn(0x2004));
    EXPECT_TRUE(ras.predictReturn(0x1004));
    EXPECT_FALSE(ras.predictReturn(0x3004)); // empty stack
}

TEST(CodeSpace, SegmentsAreDisjointAndAligned)
{
    CodeSpace cs;
    uint64_t a = cs.alloc(CodeSegment::Interp, 10);
    uint64_t b = cs.alloc(CodeSegment::Interp, 10);
    uint64_t r = cs.alloc(CodeSegment::Runtime, 10);
    uint64_t j = cs.alloc(CodeSegment::JitArena, 10);
    EXPECT_EQ(a % 16, 0u);
    EXPECT_GE(b, a + 40);
    EXPECT_GT(r, b);
    EXPECT_GT(j, r);
    EXPECT_GT(cs.jitCodeBytes(), 0u);
}

TEST(Core, CountsInstructionsAndClasses)
{
    Core core;
    BlockEmitter e(core, 0x400000);
    e.alu(3);
    e.loadPtr(&core);
    e.storePtr(&core);
    e.branch(true);
    auto t = core.totalCounters();
    EXPECT_EQ(t.instructions, 6u);
    EXPECT_EQ(t.loads, 1u);
    EXPECT_EQ(t.stores, 1u);
    EXPECT_EQ(t.branches, 1u);
    EXPECT_EQ(t.condBranches, 1u);
}

TEST(Core, IpcBoundedByIssueWidth)
{
    CoreParams p;
    p.issueWidth = 4;
    Core core(p);
    BlockEmitter e(core, 0x400000);
    // Re-emit the same block so the icache warms up.
    for (int i = 0; i < 1000; ++i) {
        BlockEmitter blk(core, 0x400000);
        blk.alu(16);
    }
    double ipc = core.totalCounters().ipc();
    EXPECT_LE(ipc, 4.0);
    EXPECT_GT(ipc, 3.0); // pure ALU should get close to width
}

TEST(Core, MispredictsCostCycles)
{
    Core a, b;
    Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
        BlockEmitter ea(a, 0x400000);
        ea.branch(true); // predictable
        BlockEmitter eb(b, 0x400000);
        eb.branch(rng.next() & 1); // random
    }
    EXPECT_LT(a.totalCounters().mpki(), 10.0);
    EXPECT_GT(b.totalCounters().mpki(), 200.0);
    EXPECT_LT(a.totalCycles(), b.totalCycles());
}

TEST(Core, BucketsSeparateCounters)
{
    Core core;
    core.setBucket(0);
    BlockEmitter e0(core, 0x400000);
    e0.alu(5);
    core.setBucket(2);
    BlockEmitter e2(core, 0x500000);
    e2.alu(7);
    EXPECT_EQ(core.bucketCounters(0).instructions, 5u);
    EXPECT_EQ(core.bucketCounters(2).instructions, 7u);
    EXPECT_EQ(core.totalInstructions(), 12u);
}

class RecordingSink : public AnnotSink
{
  public:
    std::vector<std::pair<uint32_t, uint32_t>> seen;
    void
    onAnnot(uint32_t tag, uint32_t payload) override
    {
        seen.emplace_back(tag, payload);
    }
};

TEST(Core, AnnotationsReachSinkAndAreFree)
{
    Core core;
    RecordingSink sink;
    core.setAnnotSink(&sink);
    BlockEmitter e(core, 0x400000);
    e.annot(7, 1234);
    e.annot(8, 0);
    ASSERT_EQ(sink.seen.size(), 2u);
    EXPECT_EQ(sink.seen[0], std::make_pair(7u, 1234u));
    // Annotations are metadata: not retired instructions, no cycles.
    EXPECT_EQ(core.totalInstructions(), 0u);
    EXPECT_EQ(core.totalCycles(), 0.0);
    EXPECT_EQ(core.totalCounters().annotations, 2u);
}

TEST(Core, AnnotCostAblation)
{
    CoreParams p;
    p.annotCostFp = kCycleFp; // one full cycle per annotation
    Core core(p);
    BlockEmitter e(core, 0x400000);
    e.annot(1, 0);
    EXPECT_DOUBLE_EQ(core.totalCycles(), 1.0);
}

TEST(Core, SecondsUsesFrequency)
{
    CoreParams p;
    p.frequencyGhz = 1.0;
    Core core(p);
    for (int i = 0; i < 1000; ++i) {
        BlockEmitter e(core, 0x400000);
        e.alu(4);
    }
    EXPECT_NEAR(core.seconds(), core.totalCycles() / 1e9, 1e-15);
}

TEST(Core, ResetStats)
{
    Core core;
    BlockEmitter e(core, 0x400000);
    e.alu(5);
    core.resetStats();
    EXPECT_EQ(core.totalInstructions(), 0u);
    EXPECT_EQ(core.totalCycles(), 0.0);
}

TEST(Core, ResetStatsClearsMicroarchState)
{
    // Regression: resetStats() must also reset predictor history and
    // cache contents, so a replayed stream reproduces a fresh core's
    // counters exactly (mispredicts and cache misses included).
    auto stream = [](Core &core) {
        Rng rng(7);
        for (int i = 0; i < 5000; ++i) {
            BlockEmitter e(core, 0x400000 + (rng.next() % 16) * 0x40);
            e.alu(1 + int(rng.next() % 4));
            e.loadPtr(&core, 1);
            e.branch(rng.next() & 1);
            e.indirectJump(0x410000 + (rng.next() % 8) * 0x100);
        }
    };

    Core replayed, fresh;
    stream(replayed); // warm predictors, caches, LRU clocks
    replayed.resetStats();
    stream(replayed);
    stream(fresh);

    PerfCounters a = replayed.totalCounters();
    PerfCounters b = fresh.totalCounters();
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cyclesFp, b.cyclesFp);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
    EXPECT_EQ(a.dcacheMisses, b.dcacheMisses);
}

TEST(Core, DispatchLoopIndirectPredictability)
{
    // An interpreter-style dispatch loop over a repeating "bytecode"
    // sequence: the BTB + history should learn the repeating pattern
    // far better than a random one.
    Core regular, random;
    Rng rng(17);
    const uint64_t dispatch_pc = 0x400000;
    auto handler_pc = [](int op) { return 0x410000 + op * 0x100; };

    for (int it = 0; it < 30000; ++it) {
        int op_reg = it % 4;
        BlockEmitter er(regular, dispatch_pc);
        er.indirectJump(handler_pc(op_reg));
        int op_rnd = rng.nextBelow(16);
        BlockEmitter ex(random, dispatch_pc);
        ex.indirectJump(handler_pc(op_rnd));
    }
    double miss_regular = regular.totalCounters().branchMissRate();
    double miss_random = random.totalCounters().branchMissRate();
    EXPECT_LT(miss_regular, 0.15);
    EXPECT_GT(miss_random, 0.5);
}

/**
 * One step of a seeded mixed instruction stream: every BlockEmitter
 * method (hence every typed Core entry) with random operands, from a
 * random code address, plus occasional bucket and context switches.
 * Calls nest up to 8 deep, past the 4-entry return stack the tests
 * below configure, and some returns go to the wrong address.
 */
void
emitMixedStep(Core &core, Rng &rng)
{
    const uint64_t pc = 0x400000 + 4 * rng.nextBelow(16384);
    BlockEmitter e(core, pc);
    switch (rng.nextBelow(16)) {
      case 0:
        e.alu(1 + uint32_t(rng.nextBelow(40)),
              uint8_t(rng.nextBelow(3)));
        break;
      case 1:
        e.fpAlu(1 + uint32_t(rng.nextBelow(8)));
        break;
      case 2:
        e.mul();
        break;
      case 3:
        e.div();
        break;
      case 4:
        e.fpMul();
        break;
      case 5:
        e.fpDiv();
        break;
      case 6:
        e.nop();
        break;
      case 7:
        e.load(8 * rng.nextBelow(8192), uint8_t(rng.nextBelow(4)));
        break;
      case 8:
        e.store(8 * rng.nextBelow(8192));
        break;
      case 9:
        // Biased outcomes, so gshare both learns and misses.
        e.branch(rng.nextBelow(4) != 0);
        break;
      case 10:
        e.jump(0x400000 + 4 * rng.nextBelow(16384));
        break;
      case 11: {
        uint64_t rets[8];
        const uint32_t depth = 1 + uint32_t(rng.nextBelow(8));
        uint64_t site = pc;
        for (uint32_t d = 0; d < depth; ++d) {
            BlockEmitter c(core, site);
            c.alu(2);
            rets[d] = c.pc() + 4;
            site = 0xa00000 + 0x400 * rng.nextBelow(8);
            c.call(site);
        }
        for (uint32_t d = depth; d-- > 0;) {
            BlockEmitter r(core, site + 64);
            r.ret(rng.nextBelow(16) == 0 ? rets[d] + 4 : rets[d]);
            site = rets[d];
        }
        break;
      }
      case 12:
        e.indirectJump(0x410000 + 0x100 * rng.nextBelow(6));
        break;
      case 13: {
        // Half of these calls return at once, popping their own entry.
        const uint64_t target = 0xa10000 + 0x100 * rng.nextBelow(6);
        e.indirectCall(target);
        if (rng.nextBelow(2)) {
            BlockEmitter r(core, target);
            r.alu(1);
            r.ret(e.pc());
        }
        break;
      }
      case 14:
        e.annot(uint32_t(rng.nextBelow(32)), uint32_t(rng.next()));
        break;
      default:
        if (rng.nextBelow(2))
            core.setBucket(uint32_t(rng.nextBelow(kMaxBuckets)));
        else
            core.setProfileContext(rng.next());
        break;
    }
}

/** FNV-1a over 64-bit words. */
struct Digest
{
    uint64_t h = 1469598103934665603ull;
    uint64_t n = 0;

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }
};

class DigestSinks : public AnnotSink, public CycleSampleSink
{
  public:
    Digest annots, samples;

    void
    onAnnot(uint32_t tag, uint32_t payload) override
    {
        ++annots.n;
        annots.add(tag);
        annots.add(payload);
    }

    void
    onCycleSample(uint64_t clock_fp, uint32_t bucket, uint64_t pc,
                  uint64_t ctx) override
    {
        ++samples.n;
        samples.add(clock_fp);
        samples.add(bucket);
        samples.add(pc);
        samples.add(ctx);
    }
};

CoreParams
mixedStreamParams()
{
    CoreParams p;
    p.annotCostFp = 5;
    p.branchPred.rasDepth = 4;
    return p;
}

TEST(Core, MixedEmitterStreamCountersPinned)
{
    // Every counter, both caches' hit/miss counts, the annotation stream
    // and the cycle-sample stream of a seeded mixed stream, pinned to the
    // values the one-record-per-instruction core produced. Any change to
    // the modeled result of any typed entry point moves one of them.
    Core core(mixedStreamParams());
    DigestSinks sinks;
    core.setAnnotSink(&sinks);
    core.armSampler(&sinks, 7 * kCycleFp + 3);
    Rng rng(2017);
    for (int i = 0; i < 40000; ++i)
        emitMixedStep(core, rng);

    const PerfCounters t = core.totalCounters();
    EXPECT_EQ(t.instructions, 135223u);
    EXPECT_EQ(t.cyclesFp, 8132221u);
    EXPECT_EQ(t.branches, 33326u);
    EXPECT_EQ(t.condBranches, 2484u);
    EXPECT_EQ(t.mispredicts, 10409u);
    EXPECT_EQ(t.loads, 2451u);
    EXPECT_EQ(t.stores, 2547u);
    EXPECT_EQ(t.icacheMisses, 20580u);
    EXPECT_EQ(t.dcacheMisses, 2663u);
    EXPECT_EQ(t.annotations, 2509u);

    Digest buckets;
    for (uint32_t b = 0; b < kMaxBuckets; ++b) {
        const PerfCounters &c = core.bucketCounters(b);
        for (uint64_t v : {c.instructions, c.cyclesFp, c.branches,
                           c.condBranches, c.mispredicts, c.loads,
                           c.stores, c.icacheMisses, c.dcacheMisses,
                           c.annotations})
            buckets.add(v);
    }
    EXPECT_EQ(buckets.h, 14776075497772233127ull);

    EXPECT_EQ(core.icacheUnit().hits(), 114643u);
    EXPECT_EQ(core.icacheUnit().misses(), 20580u);
    EXPECT_EQ(core.dcacheUnit().hits(), 2335u);
    EXPECT_EQ(core.dcacheUnit().misses(), 2663u);

    EXPECT_EQ(sinks.annots.n, 2509u);
    EXPECT_EQ(sinks.annots.h, 8055166643656175221ull);
    EXPECT_EQ(sinks.samples.n, 70714u);
    EXPECT_EQ(sinks.samples.h, 11115342922863035686ull);
    EXPECT_EQ(core.sampleClockFp(), 8132221u);
}

TEST(Core, TotalsEqualBucketSumsUnderRandomBucketSwitches)
{
    // totalInstructions()/totalCyclesFp() are kept incrementally by
    // setBucket; they must equal the plain sum over buckets whatever the
    // order of switches, charges (through every emitter method, annotation
    // cost included) and resets.
    Core core(mixedStreamParams());
    Rng rng(11);
    auto check = [&](int it) {
        uint64_t insts = 0, cycles = 0;
        for (uint32_t b = 0; b < kMaxBuckets; ++b) {
            insts += core.bucketCounters(b).instructions;
            cycles += core.bucketCounters(b).cyclesFp;
        }
        ASSERT_EQ(core.totalInstructions(), insts) << "step " << it;
        ASSERT_EQ(core.totalCyclesFp(), cycles) << "step " << it;
        ASSERT_EQ(core.totalCounters().instructions, insts) << "step " << it;
    };
    for (int it = 0; it < 20000; ++it) {
        uint64_t r = rng.nextBelow(100);
        if (r < 20) {
            // Out-of-range buckets fall back to bucket 0.
            core.setBucket(uint32_t(rng.nextBelow(kMaxBuckets + 2)));
        } else if (r < 99) {
            emitMixedStep(core, rng);
        } else {
            core.resetStats();
        }
        check(it);
    }
    EXPECT_GT(core.totalInstructions(), 0u);
}

TEST(PerfCounters, DerivedMetrics)
{
    PerfCounters c;
    c.instructions = 2000;
    c.cyclesFp = 1000 * kCycleFp;
    c.branches = 200;
    c.mispredicts = 10;
    EXPECT_DOUBLE_EQ(c.ipc(), 2.0);
    EXPECT_DOUBLE_EQ(c.mpki(), 5.0);
    EXPECT_DOUBLE_EQ(c.branchRate(), 0.1);
    EXPECT_DOUBLE_EQ(c.branchMissRate(), 0.05);
}

} // namespace
} // namespace sim
} // namespace xlvm
