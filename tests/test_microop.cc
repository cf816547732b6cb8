/**
 * @file
 * Micro-op pre-lowering and superinstruction-fusion tests.
 *
 * The engine's load-bearing invariant is that fusion (and pre-lowering
 * in general) changes host dispatch only — every modeled counter must be
 * bit-identical with fusion on or off. The differential tests here run
 * the same traces and the same end-to-end workload under both settings
 * (via the JitParams toggle) and compare results and counters exactly.
 * The unit tests pin down the pre-decoder's register-file layout and the
 * fusion pass's pairing.
 */

#include <gtest/gtest.h>

#include "driver/runner.h"
#include "jit/opt.h"
#include "jit/recorder.h"
#include "vm/context.h"

namespace xlvm {
namespace vm {
namespace {

using jit::BoxType;
using jit::IrOp;
using jit::kNoArg;
using jit::MOp;
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

/** The canonical boxed counting loop (see test_vm.cc). */
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

VmConfig
configWithFusion(bool fuse)
{
    VmConfig cfg;
    cfg.jit.fuseMicroOps = fuse;
    return cfg;
}

// ---- pre-decoder unit tests ------------------------------------------

TEST(MicroOpLowering, RegisterFileLayoutAndConstMapping)
{
    VmContext ctx;
    int code;
    jit::Trace *t = registerCountingLoop(ctx, &code, 10);
    const jit::MicroProgram &prog = ctx.backend.program(t->id);

    // Unified register file: boxes first, then materialized constants.
    EXPECT_EQ(prog.constBase, t->boxTypes.size());
    EXPECT_EQ(prog.numConsts, t->consts.size());
    EXPECT_EQ(prog.numRegs, prog.constBase + prog.numConsts);

    // Every pre-decoded operand index is in range, and const operands
    // landed in the tail: int_lt's second arg is the constant limit.
    bool sawConstOperand = false;
    for (const jit::MicroOp &m : prog.ops) {
        for (int i = 0; i < jit::kMaxOpArgs; ++i) {
            if (!(m.argMask & (1u << i)))
                continue;
            EXPECT_LT(m.arg[i], prog.numRegs);
            if (m.arg[i] >= prog.constBase)
                sawConstOperand = true;
        }
    }
    EXPECT_TRUE(sawConstOperand);
}

TEST(MicroOpLowering, ProgramEndsInTrapSentinel)
{
    VmContext ctx;
    int code;
    jit::Trace *t = registerCountingLoop(ctx, &code, 10);
    const jit::MicroProgram &prog = ctx.backend.program(t->id);
    ASSERT_FALSE(prog.ops.empty());
    EXPECT_EQ(MOp(prog.ops.back().opcode), MOp::TrapEnd);
}

TEST(MicroOpLowering, FusesComparePairsWhenEnabled)
{
    VmContext on(configWithFusion(true));
    VmContext off(configWithFusion(false));
    int codeOn, codeOff;
    jit::Trace *tOn = registerCountingLoop(on, &codeOn, 10);
    jit::Trace *tOff = registerCountingLoop(off, &codeOff, 10);

    const jit::MicroProgram &pOn = on.backend.program(tOn->id);
    const jit::MicroProgram &pOff = off.backend.program(tOff->id);

    // int_lt+guard_true and int_add_ovf+guard_no_overflow must fuse.
    EXPECT_GE(pOn.fusedPairs, 2u);
    EXPECT_EQ(pOff.fusedPairs, 0u);
    // Each fused pair removes one micro-op from the stream.
    EXPECT_EQ(pOn.ops.size() + pOn.fusedPairs, pOff.ops.size());

    bool sawFused = false;
    for (const jit::MicroOp &m : pOn.ops)
        sawFused |= jit::isFusedMOp(MOp(m.opcode));
    EXPECT_TRUE(sawFused);
    for (const jit::MicroOp &m : pOff.ops)
        EXPECT_FALSE(jit::isFusedMOp(MOp(m.opcode)));
}

TEST(MicroOpLowering, FusedOpCarriesGuardMetadata)
{
    VmContext ctx;
    int code;
    jit::Trace *t = registerCountingLoop(ctx, &code, 10);
    const jit::MicroProgram &prog = ctx.backend.program(t->id);
    for (const jit::MicroOp &m : prog.ops) {
        if (!jit::isFusedMOp(MOp(m.opcode)))
            continue;
        // The guard constituent is the following IR op; deopt metadata
        // (guard index, snapshot, code offset) must point at it.
        EXPECT_EQ(m.guardIdx, m.origIdx + 1);
        EXPECT_GE(m.snapshotIdx, 0);
        EXPECT_GT(m.pcOff2, m.pcOff);
    }
}

// ---- differential: fusion must not change any observable -------------

TEST(FusionDifferential, HandBuiltLoopResultsAndCountersIdentical)
{
    const int64_t limit = 5000;
    VmContext on(configWithFusion(true));
    VmContext off(configWithFusion(false));
    int codeOn, codeOff;
    jit::Trace *tOn = registerCountingLoop(on, &codeOn, limit);
    jit::Trace *tOff = registerCountingLoop(off, &codeOff, limit);
    ASSERT_GE(on.backend.program(tOn->id).fusedPairs, 2u);

    DeoptResult rOn =
        on.executor.run(*tOn, {RtVal::fromRef(on.space.newInt(0))});
    DeoptResult rOff =
        off.executor.run(*tOff, {RtVal::fromRef(off.space.newInt(0))});

    // Same architectural result...
    ASSERT_EQ(rOn.frames.size(), 1u);
    ASSERT_EQ(rOff.frames.size(), 1u);
    ASSERT_EQ(rOn.frames[0].stack.size(), 1u);
    EXPECT_EQ(
        static_cast<obj::W_Int *>(rOn.frames[0].stack[0])->value,
        static_cast<obj::W_Int *>(rOff.frames[0].stack[0])->value);
    EXPECT_EQ(rOn.guardOpIdx, rOff.guardOpIdx);

    // ...and a bit-identical modeled machine.
    sim::PerfCounters cOn = on.core.totalCounters();
    sim::PerfCounters cOff = off.core.totalCounters();
    EXPECT_EQ(cOn.instructions, cOff.instructions);
    EXPECT_EQ(cOn.cycles(), cOff.cycles());
    EXPECT_EQ(on.executor.deoptCount(), off.executor.deoptCount());
    EXPECT_EQ(on.executor.iterationCount(),
              off.executor.iterationCount());
}

TEST(FusionDifferential, EndToEndWorkloadCountersIdentical)
{
    driver::RunOptions base;
    base.workload = "crypto_pyaes";
    base.scale = 60;
    base.vm = driver::VmKind::PyPyJit;
    base.loopThreshold = 60;

    driver::RunOptions fused = base;
    fused.jitFuseMicroOps = true;
    driver::RunOptions unfused = base;
    unfused.jitFuseMicroOps = false;

    driver::RunResult a = driver::runWorkload(fused);
    driver::RunResult b = driver::runWorkload(unfused);

    ASSERT_TRUE(a.completed);
    ASSERT_TRUE(b.completed);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.deopts, b.deopts);
    EXPECT_EQ(a.traceEnters, b.traceEnters);
    EXPECT_EQ(a.loopsCompiled, b.loopsCompiled);
    EXPECT_EQ(a.bridgesCompiled, b.bridgesCompiled);
    EXPECT_EQ(a.gcMinor, b.gcMinor);
    EXPECT_EQ(a.gcMajor, b.gcMajor);
    EXPECT_EQ(a.gcAllocations, b.gcAllocations);
    EXPECT_EQ(a.icacheHits, b.icacheHits);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
    EXPECT_EQ(a.dcacheHits, b.dcacheHits);
    EXPECT_EQ(a.dcacheMisses, b.dcacheMisses);
    EXPECT_EQ(a.work, b.work);
}

} // namespace
} // namespace vm
} // namespace xlvm
