/**
 * @file
 * vm-layer unit tests: trace registry, executor on hand-built traces,
 * blackhole materialization (including virtual reconstruction), and the
 * GC phase hooks.
 */

#include <gtest/gtest.h>

#include <string>

#include "jit/opt.h"
#include "jit/recorder.h"
#include "vm/context.h"

namespace xlvm {
namespace vm {
namespace {

using jit::BoxType;
using jit::IrOp;
using jit::kNoArg;
using jit::RtVal;

jit::Snapshot
frameSnap(void *code, uint32_t pc, std::vector<int32_t> stack)
{
    jit::Snapshot s;
    jit::FrameSnapshot f;
    f.code = code;
    f.pc = pc;
    f.stack = std::move(stack);
    s.frames.push_back(std::move(f));
    return s;
}

/**
 * Build and register "while i < limit: i = i + 1" over boxed ints, the
 * canonical meta-trace: guard_class, getfield, int_lt+guard, add+ovf
 * guard, new/setfield (virtualized), jump.
 */
jit::Trace *
registerCountingLoop(VmContext &ctx, void *code, int64_t limit)
{
    jit::Recorder rec(code, 7, false);
    rec.setAnchorLocals(1);
    obj::W_Int *seed = ctx.space.newInt(0);
    int32_t in0 = rec.addInputRef(seed);
    EXPECT_TRUE(rec.atMergePoint(0, [&] {
        return frameSnap(code, 7, {in0});
    }));
    rec.guardClass(in0, obj::kTypeInt);
    int32_t v = rec.emitTyped(IrOp::GetfieldGc, BoxType::Int, in0,
                              kNoArg, kNoArg, obj::kFieldValue);
    int32_t cmp = rec.emit(IrOp::IntLt, v, rec.constInt(limit));
    rec.guardTrue(cmp);
    int32_t next = rec.emit(IrOp::IntAddOvf, v, rec.constInt(1));
    rec.guardNoOverflow();
    int32_t box = rec.emit(IrOp::NewWithVtable, kNoArg, kNoArg, kNoArg,
                           obj::kTypeInt);
    rec.emit(IrOp::SetfieldGc, box, next, kNoArg, obj::kFieldValue);
    rec.closeLoop({box});

    jit::OptParams op;
    op.classOf = [](void *p) {
        return p ? uint32_t(static_cast<obj::W_Object *>(p)->typeId())
                 : 0u;
    };
    auto optimized =
        std::make_unique<jit::Trace>(jit::optimize(rec.take(), op));
    optimized->id = ctx.registry.nextId();
    ctx.backend.compile(*optimized);
    return ctx.registry.add(std::move(optimized));
}

TEST(Registry, LoopLookupByAnchor)
{
    VmContext ctx;
    int codeA, codeB;
    jit::Trace *t = registerCountingLoop(ctx, &codeA, 5);
    EXPECT_EQ(ctx.registry.loopFor(&codeA, 7), t);
    EXPECT_EQ(ctx.registry.loopFor(&codeA, 8), nullptr);
    EXPECT_EQ(ctx.registry.loopFor(&codeB, 7), nullptr);
    EXPECT_EQ(ctx.registry.byId(t->id), t);
}

TEST(Executor, RunsLoopToExitGuard)
{
    VmContext ctx;
    int code;
    jit::Trace *t = registerCountingLoop(ctx, &code, 100);

    obj::W_Int *start = ctx.space.newInt(0);
    DeoptResult res =
        ctx.executor.run(*t, {RtVal::fromRef(start)});

    // The loop counts to 100, then the int_lt guard fails.
    ASSERT_EQ(res.frames.size(), 1u);
    EXPECT_EQ(res.frames[0].code, &code);
    EXPECT_EQ(res.frames[0].pc, 7u);
    ASSERT_EQ(res.frames[0].stack.size(), 1u);
    obj::W_Object *out = res.frames[0].stack[0];
    ASSERT_EQ(out->typeId(), obj::kTypeInt);
    EXPECT_EQ(static_cast<obj::W_Int *>(out)->value, 100);
    EXPECT_EQ(ctx.executor.deoptCount(), 1u);
    EXPECT_GE(ctx.executor.iterationCount(), 100u);
}

TEST(Executor, EmitsJitPhaseAndDispatchWork)
{
    VmContext ctx;
    int code;
    jit::Trace *t = registerCountingLoop(ctx, &code, 50);
    ctx.executor.run(*t, {RtVal::fromRef(ctx.space.newInt(0))});
    ctx.bus.work.finalize();
    // The debug_merge_point in the trace carries the dispatch
    // annotation: work advances inside JIT code.
    EXPECT_GE(ctx.bus.work.totalWork(), 50u);
    EXPECT_GT(ctx.bus.phases.phaseCounters(xlayer::Phase::Jit).cycles(),
              0.0);
    EXPECT_GT(
        ctx.bus.phases.phaseCounters(xlayer::Phase::Blackhole).cycles(),
        0.0);
}

TEST(Executor, GuardFailureCountsAccumulate)
{
    VmContext ctx;
    int code;
    jit::Trace *t = registerCountingLoop(ctx, &code, 3);
    for (int i = 0; i < 5; ++i)
        ctx.executor.run(*t, {RtVal::fromRef(ctx.space.newInt(0))});
    uint32_t exitGuardFails = 0;
    for (const jit::GuardState &g : t->guardStates)
        exitGuardFails = std::max(exitGuardFails, g.failCount);
    EXPECT_EQ(exitGuardFails, 5u);
    EXPECT_EQ(t->executions, 5u * 4u); // 3 iterations + entry per run
}

TEST(Executor, HotGuardRequestedAtThreshold)
{
    VmConfig cfg;
    cfg.jit.bridgeThreshold = 3;
    VmContext ctx(cfg);
    int code;
    jit::Trace *t = registerCountingLoop(ctx, &code, 2);
    for (int i = 0; i < 3; ++i)
        ctx.executor.run(*t, {RtVal::fromRef(ctx.space.newInt(0))});
    ASSERT_FALSE(ctx.executor.hotGuards.empty());
    EXPECT_EQ(ctx.executor.hotGuards[0].first, t->id);
}

TEST(Blackhole, MaterializesVirtualObjects)
{
    VmContext ctx;
    jit::Trace t;
    t.boxTypes = {BoxType::Int};
    // One virtual W_Int whose value field is box 0.
    jit::VirtualObj vo;
    vo.typeId = obj::kTypeInt;
    vo.fieldRefs = {0};
    vo.numFields = 1;
    t.virtuals.push_back(vo);

    jit::Snapshot snap;
    jit::FrameSnapshot fs;
    int code;
    fs.code = &code;
    fs.pc = 3;
    fs.stack = {jit::makeVirtualRef(0)};
    snap.frames.push_back(fs);

    std::vector<RtVal> regs = {RtVal::fromInt(42)};
    DeoptResult res =
        blackholeMaterialize(ctx.space, t, snap, regs, 0);
    ASSERT_EQ(res.frames.size(), 1u);
    ASSERT_EQ(res.frames[0].stack.size(), 1u);
    obj::W_Object *w = res.frames[0].stack[0];
    ASSERT_EQ(w->typeId(), obj::kTypeInt);
    EXPECT_EQ(static_cast<obj::W_Int *>(w)->value, 42);
}

TEST(Blackhole, SharedVirtualMaterializedOnce)
{
    VmContext ctx;
    jit::Trace t;
    jit::VirtualObj vo;
    vo.typeId = obj::kTypePair;
    vo.fieldRefs = {kNoArg, kNoArg};
    vo.numFields = 2;
    t.virtuals.push_back(vo);

    jit::Snapshot snap;
    jit::FrameSnapshot fs;
    fs.stack = {jit::makeVirtualRef(0), jit::makeVirtualRef(0)};
    snap.frames.push_back(fs);

    std::vector<RtVal> regs;
    DeoptResult res =
        blackholeMaterialize(ctx.space, t, snap, regs, 0);
    EXPECT_EQ(res.frames[0].stack[0], res.frames[0].stack[1]);
}

/**
 * One materialized slot, described by allocation order rather than host
 * address so two heaps can be compared: allocSeq, type, and the value or
 * the referents' allocSeqs.
 */
std::string
describeSlot(const obj::W_Object *w)
{
    std::string d = std::to_string(w->allocId()) + ":" +
                    obj::typeName(w->typeId());
    switch (w->typeId()) {
      case obj::kTypeInt:
        return d + "=" +
               std::to_string(static_cast<const obj::W_Int *>(w)->value);
      case obj::kTypeFloat:
        return d + "=" +
               std::to_string(static_cast<const obj::W_Float *>(w)->value);
      case obj::kTypePair: {
        auto *p = static_cast<const obj::W_Pair *>(w);
        return d + "(" + std::to_string(p->car->allocId()) + "," +
               std::to_string(p->cdr->allocId()) + ")";
      }
      default:
        return d;
    }
}

TEST(Blackhole, BridgeInputsEqualFlattenedState)
{
    // The guard->bridge transfer resolves slots straight into its input
    // buffer. It must equal materializeState's frames read outer to
    // inner, locals then stack: the same objects, built by the same
    // allocations in the same allocSeq order (boxing allocates, so the
    // order is part of the modeled result).
    jit::Trace t;
    // v0: an int whose value is register 0. v1: a pair (v0, register 2).
    jit::VirtualObj v0;
    v0.typeId = obj::kTypeInt;
    v0.fieldRefs = {0};
    v0.numFields = 1;
    jit::VirtualObj v1;
    v1.typeId = obj::kTypePair;
    v1.fieldRefs = {jit::makeVirtualRef(0), 2};
    v1.numFields = 2;
    t.virtuals = {v0, v1};

    int outer, inner;
    jit::Snapshot snap;
    jit::FrameSnapshot f0;
    f0.code = &outer;
    f0.pc = 4;
    f0.locals = {0, jit::makeVirtualRef(1), kNoArg}; // Int reg boxes
    f0.stack = {1};                                  // Float reg boxes
    jit::FrameSnapshot f1;
    f1.code = &inner;
    f1.pc = 9;
    // v0 from a second slot (and as v1's car); v1 referenced twice.
    f1.locals = {jit::makeVirtualRef(0)};
    f1.stack = {jit::makeVirtualRef(1), 0, 2};
    snap.frames = {f0, f1};

    struct Side
    {
        VmContext ctx;
        std::vector<RtVal> regs;
        uint64_t allocsBefore = 0;

        Side()
        {
            regs = {RtVal::fromInt(-3), RtVal::fromFloat(1.5),
                    RtVal::fromRef(ctx.space.newInt(11))};
            allocsBefore = ctx.space.heap().stats().allocations;
        }
        uint64_t
        allocs()
        {
            return ctx.space.heap().stats().allocations - allocsBefore;
        }
    };

    Side flat, direct;
    TransferBuffers buf;
    for (int round = 0; round < 2; ++round) {
        // The second round reuses the grown buffers: the memo must start
        // empty again, so every virtual is built afresh.
        const uint64_t flatBefore = flat.allocs();
        DeoptResult st =
            materializeState(flat.ctx.space, t, snap, flat.regs);
        std::vector<obj::W_Object *> want;
        for (const FrameState &f : st.frames) {
            want.insert(want.end(), f.locals.begin(), f.locals.end());
            want.insert(want.end(), f.stack.begin(), f.stack.end());
        }

        const uint64_t directBefore = direct.allocs();
        materializeInputs(direct.ctx.space, t, snap, direct.regs, buf);
        ASSERT_EQ(buf.inputs.size(), want.size());
        EXPECT_EQ(direct.allocs() - directBefore,
                  flat.allocs() - flatBefore);
        for (size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(buf.inputs[i].kind, RtVal::Kind::Ref);
            auto *got = static_cast<obj::W_Object *>(buf.inputs[i].r);
            EXPECT_EQ(describeSlot(got), describeSlot(want[i]))
                << "round " << round << ", slot " << i;
            for (size_t j = 0; j < i; ++j) {
                EXPECT_EQ(buf.inputs[j].r == buf.inputs[i].r,
                          want[j] == want[i])
                    << "round " << round << ", slots " << j << ", " << i;
            }
        }
    }
    // Per round: two boxed ints, a boxed float, the int and pair virtuals.
    EXPECT_EQ(flat.allocs(), 10u);
}

TEST(Blackhole, CyclicVirtualsTerminate)
{
    VmContext ctx;
    jit::Trace t;
    // pair.car -> itself.
    jit::VirtualObj vo;
    vo.typeId = obj::kTypePair;
    vo.fieldRefs = {jit::makeVirtualRef(0), kNoArg};
    vo.numFields = 2;
    t.virtuals.push_back(vo);

    jit::Snapshot snap;
    jit::FrameSnapshot fs;
    fs.stack = {jit::makeVirtualRef(0)};
    snap.frames.push_back(fs);

    std::vector<RtVal> regs;
    DeoptResult res =
        blackholeMaterialize(ctx.space, t, snap, regs, 0);
    auto *p = static_cast<obj::W_Pair *>(res.frames[0].stack[0]);
    ASSERT_EQ(p->typeId(), obj::kTypePair);
    EXPECT_EQ(p->car, p); // the cycle survived materialization
}

/**
 * Soundness contract between the optimizer and the blackhole: the
 * optimizer virtualizes EVERY NewWithVtable optimistically, so every
 * type the tracer allocates must be rebuildable by allocByTypeId and
 * its fields must round-trip through rtSetField/rtGetField — the exact
 * path deopt takes when a virtual escapes into the resume state. The
 * cases are kRebuildableTypes, the list the recorders are checked
 * against (test_known_issues: RecordedAllocationTypesAreRebuildable).
 */
class VirtualRebuild : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(VirtualRebuild, AllocAndFieldRoundTrip)
{
    VmContext ctx;
    obj::ObjSpace &sp = ctx.space;
    uint32_t tid = GetParam();
    obj::W_Object *w = allocByTypeId(sp, tid);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->typeId(), tid);

    auto roundTripInt = [&](uint32_t f, int64_t v) {
        w->rtSetField(f, RtVal::fromInt(v), ctx.heap);
        EXPECT_EQ(w->rtGetField(f).i, v) << "field " << f;
    };
    auto roundTripRef = [&](uint32_t f, obj::W_Object *v) {
        w->rtSetField(f, RtVal::fromRef(v), ctx.heap);
        EXPECT_EQ(w->rtGetField(f).r, v) << "field " << f;
    };

    switch (tid) {
      case obj::kTypeInt:
      case obj::kTypeBool:
        roundTripInt(obj::kFieldValue, tid == obj::kTypeBool ? 1 : 42);
        break;
      case obj::kTypeFloat:
        w->rtSetField(obj::kFieldValue, RtVal::fromFloat(2.5),
                      ctx.heap);
        EXPECT_EQ(w->rtGetField(obj::kFieldValue).f, 2.5);
        break;
      case obj::kTypeCell:
        roundTripRef(obj::kFieldValue, sp.newInt(9));
        break;
      case obj::kTypeListIter:
        roundTripInt(obj::kFieldIterIndex, 3);
        roundTripRef(obj::kFieldIterTarget, sp.newList());
        break;
      case obj::kTypeStrIter:
        roundTripInt(obj::kFieldIterIndex, 1);
        roundTripRef(obj::kFieldIterTarget, sp.newStr("ab"));
        break;
      case obj::kTypeTupleIter:
        roundTripInt(obj::kFieldIterIndex, 0);
        roundTripRef(obj::kFieldIterTarget, sp.newTuple({}));
        break;
      case obj::kTypeRange:
      case obj::kTypeRangeIter:
        roundTripInt(obj::kFieldRangeCur, 4);
        roundTripInt(obj::kFieldRangeStop, 10);
        roundTripInt(obj::kFieldRangeStep, 2);
        break;
      case obj::kTypeBoundMethod:
        roundTripRef(obj::kFieldBoundSelf, sp.newInt(1));
        roundTripRef(obj::kFieldBoundFunc, sp.newInt(2));
        break;
      case obj::kTypePair:
        roundTripRef(obj::kFieldCar, sp.newInt(1));
        roundTripRef(obj::kFieldCdr, sp.none());
        break;
      case obj::kTypeInstance:
        // Field semantics (map install restoring cls) are covered by
        // the workload agreement suite; here only rebuild must work.
        break;
      default:
        FAIL() << "unexpected type id " << tid;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllVirtualizable, VirtualRebuild,
    ::testing::ValuesIn(kRebuildableTypes),
    [](const ::testing::TestParamInfo<uint32_t> &info) {
        return std::string(obj::typeName(info.param));
    });

TEST(GcHooks, CollectionsLandInGcPhase)
{
    VmConfig cfg;
    cfg.heap.nurseryBytes = 2048;
    VmContext ctx(cfg);
    for (int i = 0; i < 200; ++i)
        ctx.space.newStr(std::string(64, 'x'));
    ctx.heap.safepoint();
    EXPECT_GT(ctx.heap.stats().minorCollections, 0u);
    EXPECT_GT(ctx.bus.phases.phaseCounters(xlayer::Phase::Gc).cycles(), 0.0);
    EXPECT_GT(ctx.bus.count(xlayer::kGcMinor), 0u);
}

TEST(Registry, TraceConstsAreGcRoots)
{
    VmConfig cfg;
    cfg.heap.nurseryBytes = 1024;
    VmContext ctx(cfg);
    int code;
    // The counting loop pins no heap consts, so pin one by hand.
    jit::Trace *t = registerCountingLoop(ctx, &code, 5);
    obj::W_Str *pinned = ctx.space.newStr("pinned-by-trace");
    const_cast<jit::Trace *>(t)->addConst(RtVal::fromRef(pinned));
    ctx.heap.collect();
    ctx.heap.collectMajor();
    // Object must have survived both collections via the registry root.
    EXPECT_EQ(pinned->value, "pinned-by-trace");
}

} // namespace
} // namespace vm
} // namespace xlvm
