/**
 * @file
 * Threaded-code trace execution over pre-decoded micro-ops.
 *
 * TraceExecutor::run dispatches over the micro-op program the backend
 * lowered at compile time (jit/lower.h): handlers are reached through a
 * computed-goto label table (function-less threaded dispatch; computed
 * goto is a GCC/Clang extension, and the build already requires one of
 * the two), operands are direct register-file indices (constants were
 * materialized into the file's tail at trace entry), and per-op
 * simulation metadata (code offsets, IR-node ids, guard indices) is read
 * inline from the micro-op.
 *
 * Counters-are-invariant contract: every handler emits exactly the
 * simulated instruction sequence (same PCs, same order) that the
 * pre-rewrite switch interpreter emitted for the corresponding IR ops —
 * including fused superinstructions, which emit both constituents'
 * expansions around a single host dispatch. The tests/golden/ gate
 * holds the engine to that bit-for-bit.
 */

#include "vm/executor.h"

#include <cmath>

#include "rt/rstr.h"
#include "xlayer/annot.h"

namespace xlvm {
namespace vm {

using jit::IrOp;
using jit::MicroOp;
using jit::MicroProgram;
using jit::MOp;
using jit::ResOp;
using jit::RtVal;
using jit::Trace;
using obj::W_Object;

TraceExecutor::TraceExecutor(obj::ObjSpace &sp, TraceRegistry &reg,
                             jit::Backend &be, const JitParams &p)
    : space(sp), registry(reg), backend(be), params(p)
{
    space.heap().addRootProvider(this);
}

TraceExecutor::~TraceExecutor()
{
    space.heap().removeRootProvider(this);
}

void
TraceExecutor::forEachRoot(gc::GcVisitor &v)
{
    for (Level &lvl : active) {
        for (RtVal &r : *lvl.regs) {
            if (r.kind == RtVal::Kind::Ref && r.r)
                v.visit(static_cast<gc::GcObject *>(r.r));
        }
        for (const RtVal &c : lvl.trace->consts) {
            if (c.kind == RtVal::Kind::Ref && c.r)
                v.visit(static_cast<gc::GcObject *>(c.r));
        }
    }
}

namespace {

inline W_Object *
asObj(const RtVal &v)
{
    return static_cast<W_Object *>(v.r);
}

} // namespace

DeoptResult
TraceExecutor::run(Trace &trace, const std::vector<RtVal> &inputs)
{
    obj::ExecEnv &env = space.env();
    sim::Core &core = env.core();
    JitCodeScope jitScope(env);

    const bool annotate = params.irNodeAnnotations;
    const uint8_t loadStall = env.costs().jitLoadStall;

    Trace *t = nullptr;
    MicroProgram *prog = nullptr;
    const MicroOp *mop = nullptr;
    uint64_t codePc = 0;
    std::vector<RtVal> regs;
    RtVal *R = nullptr;
    std::vector<RtVal> scratch; ///< jump staging (reads, then writes)
    TransferBuffers xfer;       ///< guard→bridge inputs and virtual memo
    bool pendingOverflow = false;
    uint64_t steps = 0;
    DeoptResult deoptOut;

    // Handler addresses, filled by explicit micro-opcode index so the
    // mapping cannot drift from the MOp enum order. Label addresses are
    // function-local, hence the table is built here and cached into each
    // program's pre-resolved handler slots on its first entry.
    const void *labels[jit::kNumMOps] = {};
#define XLVM_LBL(name) labels[size_t(MOp::name)] = &&L_##name
    XLVM_LBL(Label);
    XLVM_LBL(DebugMergePoint);
    XLVM_LBL(Jump);
    XLVM_LBL(Finish);
    XLVM_LBL(GuardTrue);
    XLVM_LBL(GuardFalse);
    XLVM_LBL(GuardClass);
    XLVM_LBL(GuardValue);
    XLVM_LBL(GuardNonnull);
    XLVM_LBL(GuardIsnull);
    XLVM_LBL(GuardNoOverflow);
    XLVM_LBL(IntAdd);
    XLVM_LBL(IntSub);
    XLVM_LBL(IntMul);
    XLVM_LBL(IntFloordiv);
    XLVM_LBL(IntMod);
    XLVM_LBL(IntAnd);
    XLVM_LBL(IntOr);
    XLVM_LBL(IntXor);
    XLVM_LBL(IntLshift);
    XLVM_LBL(IntRshift);
    XLVM_LBL(IntNeg);
    XLVM_LBL(IntAddOvf);
    XLVM_LBL(IntSubOvf);
    XLVM_LBL(IntMulOvf);
    XLVM_LBL(IntLt);
    XLVM_LBL(IntLe);
    XLVM_LBL(IntEq);
    XLVM_LBL(IntNe);
    XLVM_LBL(IntGt);
    XLVM_LBL(IntGe);
    XLVM_LBL(IntIsZero);
    XLVM_LBL(IntIsTrue);
    XLVM_LBL(FloatAdd);
    XLVM_LBL(FloatSub);
    XLVM_LBL(FloatMul);
    XLVM_LBL(FloatTruediv);
    XLVM_LBL(FloatNeg);
    XLVM_LBL(FloatAbs);
    XLVM_LBL(FloatLt);
    XLVM_LBL(FloatLe);
    XLVM_LBL(FloatEq);
    XLVM_LBL(FloatNe);
    XLVM_LBL(FloatGt);
    XLVM_LBL(FloatGe);
    XLVM_LBL(CastIntToFloat);
    XLVM_LBL(CastFloatToInt);
    XLVM_LBL(PtrEq);
    XLVM_LBL(PtrNe);
    XLVM_LBL(SameAs);
    XLVM_LBL(GetfieldGc);
    XLVM_LBL(SetfieldGc);
    XLVM_LBL(GetarrayitemGc);
    XLVM_LBL(SetarrayitemGc);
    XLVM_LBL(ArraylenGc);
    XLVM_LBL(Strlen);
    XLVM_LBL(Strgetitem);
    XLVM_LBL(NewWithVtable);
    XLVM_LBL(Call);
    XLVM_LBL(CallPure);
    XLVM_LBL(CallMayForce);
    XLVM_LBL(CallAssembler);
    XLVM_LBL(FuseLtGuardTrue);
    XLVM_LBL(FuseLtGuardFalse);
    XLVM_LBL(FuseLeGuardTrue);
    XLVM_LBL(FuseLeGuardFalse);
    XLVM_LBL(FuseEqGuardTrue);
    XLVM_LBL(FuseEqGuardFalse);
    XLVM_LBL(FuseNeGuardTrue);
    XLVM_LBL(FuseNeGuardFalse);
    XLVM_LBL(FuseGtGuardTrue);
    XLVM_LBL(FuseGtGuardFalse);
    XLVM_LBL(FuseGeGuardTrue);
    XLVM_LBL(FuseGeGuardFalse);
    XLVM_LBL(FuseIsZeroGuardTrue);
    XLVM_LBL(FuseIsZeroGuardFalse);
    XLVM_LBL(FuseIsTrueGuardTrue);
    XLVM_LBL(FuseIsTrueGuardFalse);
    XLVM_LBL(FuseGetfieldGuardClass);
    XLVM_LBL(FuseAddOvfGuard);
    XLVM_LBL(FuseSubOvfGuard);
    XLVM_LBL(FuseMulOvfGuard);
    XLVM_LBL(Unimpl);
    XLVM_LBL(TrapEnd);
#undef XLVM_LBL

    auto resolveHandlers = [&](MicroProgram &p) {
        if (p.resolved)
            return;
        for (MicroOp &m : p.ops)
            m.handler = labels[m.opcode];
        p.resolved = true;
    };

    // Per-tier cycle attribution: close the interval running since the
    // previous sample, charge it to that tier, open one for @p next.
    // Host-side bookkeeping only — no modeled instruction is emitted.
    auto tierFlush = [&](uint8_t next) {
        uint64_t now = core.totalCyclesFp();
        if (curTier)
            tierCycles[curTier] += now - tierSampleFp;
        tierSampleFp = now;
        curTier = next;
    };

    // Sampler context: one packed store per trace transfer, restored on
    // leave (nested run()s save/restore recursively through this local).
    const uint64_t prevCtx = core.profileContext();

    // @p in must not alias regs: regs is reassigned before the copy.
    auto enterTrace = [&](Trace *target, const std::vector<RtVal> &in) {
        if (target->tier != curTier)
            tierFlush(target->tier);
        core.setProfileContext(sim::sampleCtxPack(
            target->isBridge ? sim::SampleCtxKind::Bridge
                             : sim::SampleCtxKind::Trace,
            target->tier, target->id));
        t = target;
        prog = &backend.program(target->id);
        resolveHandlers(*prog);
        XLVM_ASSERT(in.size() == target->numInputs,
                    "trace input arity mismatch: ", in.size(), " vs ",
                    target->numInputs, " (trace ", target->id, ")");
        regs.assign(prog->numRegs, RtVal());
        R = regs.data();
        for (size_t i = 0; i < in.size(); ++i)
            R[i] = in[i];
        // Pre-materialize the constants the program was lowered against
        // into the register-file tail: operand fetch needs no const/box
        // distinction. (Consts added after compile — GC pinning — are
        // never referenced by ops and stay in Trace::consts only.)
        const RtVal *cs = target->consts.data();
        for (uint32_t k = 0; k < prog->numConsts; ++k)
            R[prog->constBase + k] = cs[k];
        codePc = target->codePc;
        ++target->executions;
    };

    {
        sim::BlockEmitter e(core, trace.codePc);
        e.annot(xlayer::kTraceEnter, trace.id);
        e.annot(xlayer::kPhaseEnter, uint32_t(xlayer::Phase::Jit));
    }
    enterTrace(&trace, inputs);
    active.push_back(Level{t, &regs});

    // Latency metering anchors: trace entry here, each back-edge, and
    // leave().
    const uint64_t entryFp = core.totalCyclesFp();
    uint64_t iterStartFp = entryFp;

    auto leave = [&](DeoptResult &&res) {
        execHist_.record((core.totalCyclesFp() - entryFp) / sim::kCycleFp);
        active.pop_back();
        tierFlush(0);
        core.setProfileContext(prevCtx);
        sim::BlockEmitter e(core, t->codePc + t->codeInsts * 4);
        e.annot(xlayer::kTraceLeave, t->id);
        e.annot(xlayer::kPhaseExit, uint32_t(xlayer::Phase::Jit));
        return std::move(res);
    };

    auto runaway = [&]() {
        // A correct program cannot take this many backward transfers in
        // one JIT entry at our benchmark scales.
        std::string all;
        for (const auto &tr : registry.all()) {
            if (!tr)
                continue;
            all += tr->dump();
            for (size_t g = 0; g < tr->guardStates.size(); ++g) {
                if (tr->guardStates[g].failCount) {
                    all += "  guard@" + std::to_string(g) + " fails=" +
                           std::to_string(tr->guardStates[g].failCount) +
                           " bridge=" +
                           std::to_string(
                               tr->guardStates[g].bridgeTraceId) +
                           "\n";
                }
            }
        }
        XLVM_PANIC("runaway trace execution, in trace ", t->id,
                   "; all traces:\n", all);
    };

    /**
     * The single guard-failure path (previously duplicated across the
     * guard and main switches): bump counters, emit the deopt
     * annotation, then either transfer into an attached bridge (returns
     * false; caller restarts dispatch at the bridge program) or
     * materialize the deopt state into deoptOut (returns true; caller
     * leaves). Works identically for plain and fused guards — the
     * micro-op carries the guard constituent's op index, snapshot and
     * code offset.
     */
    auto guardFail = [&](const MicroOp &m) -> bool {
        jit::GuardState &gs = t->guardStates[m.guardIdx];
        ++gs.failCount;
        ++nDeopts;
        {
            sim::BlockEmitter ed(core, codePc + m.pcOff2 + 8);
            ed.annot(xlayer::kDeopt, m.guardIdx);
        }
        const jit::Snapshot &snap = t->snapshots[m.snapshotIdx];
        if (gs.bridgeTraceId >= 0) {
            // Transfer into the attached bridge.
            Trace *bridge = registry.byId(uint32_t(gs.bridgeTraceId));
            materializeInputs(space, *t, snap, regs, xfer);
            if (xfer.inputs.size() != bridge->numInputs) {
                // Shape mismatch (shouldn't happen): hard deopt.
                deoptOut = blackholeMaterialize(space, *t, snap, regs,
                                                m.guardIdx);
                return true;
            }
            enterTrace(bridge, xfer.inputs);
            active.back().trace = t;
            return false;
        }
        if (gs.failCount == params.bridgeThreshold)
            hotGuards.emplace_back(t->id, m.guardIdx);
        deoptOut = blackholeMaterialize(space, *t, snap, regs, m.guardIdx);
        return true;
    };

    // Runaway backstop. A trace is a linear program: execution cannot
    // run forever without taking a backward transfer (loop-back jump,
    // cross-trace jump, or bridge entry), so counting restarts bounds
    // total work at maxTraceOps per count — the check stays off the
    // per-op dispatch path entirely.
    constexpr uint64_t kMaxRestarts = 1ull << 30;

    mop = prog->ops.data();

// Every handler must end the lifetime of any local that owns resources
// (std::vector, DeoptResult, ...) before NEXT/RESTART/DISPATCH: GCC runs
// no destructors when a computed goto leaves a scope. Scope such locals
// in an inner block, as the CallAssembler handler does.
#define OP(name) L_##name
#define DISPATCH() goto *mop->handler

#define NEXT()                                                          \
    do {                                                                \
        ++mop;                                                          \
        DISPATCH();                                                     \
    } while (0)

/** Restart dispatch at the current program's first micro-op (every
 *  backward transfer comes through here — the runaway check point). */
#define RESTART()                                                       \
    do {                                                                \
        if (__builtin_expect(++steps > kMaxRestarts, 0))                \
            runaway();                                                  \
        mop = prog->ops.data();                                         \
        DISPATCH();                                                     \
    } while (0)

/** Guard-failure tail shared by every guard handler. */
#define GUARD_EXIT()                                                    \
    do {                                                                \
        if (guardFail(*mop))                                            \
            return leave(std::move(deoptOut));                          \
        RESTART();                                                      \
    } while (0)

/** Per-op prologue: emitter at the op's code address + IR-node annot. */
#define BEGIN()                                                         \
    sim::BlockEmitter e(core, codePc + mop->pcOff);                     \
    if (annotate && mop->nodeId >= 0)                                   \
    e.annot(xlayer::kIrNode, uint32_t(mop->nodeId))

/** Prologue of a fused pair's second (guard) constituent. */
#define BEGIN2()                                                        \
    sim::BlockEmitter e2(core, codePc + mop->pcOff2);                   \
    if (annotate && mop->nodeId2 >= 0)                                  \
    e2.annot(xlayer::kIrNode, uint32_t(mop->nodeId2))

#define RA (R[mop->arg[0]])
#define RB (R[mop->arg[1]])
#define RC (R[mop->arg[2]])

#define SETRES(v)                                                       \
    do {                                                                \
        if (mop->res >= 0)                                              \
            R[mop->res] = (v);                                          \
    } while (0)

    DISPATCH();

    // ---- control ----------------------------------------------------
    OP(Label) : {
        // Loop header: GC safepoint.
        space.heap().safepoint();
        NEXT();
    }

    OP(DebugMergePoint) : {
        sim::BlockEmitter e(core, codePc + mop->pcOff);
        e.annot(xlayer::kDispatch, mop->aux);
        NEXT();
    }

    OP(Jump) : {
        BEGIN();
        e.jump(codePc);
        {
            // Back-edge-to-back-edge latency.
            const uint64_t nowFp = core.totalCyclesFp();
            iterHist_.record((nowFp - iterStartFp) / sim::kCycleFp);
            iterStartFp = nowFp;
        }
        const uint32_t *ax = prog->extra.data() + mop->extraOff;
        const uint32_t n = mop->extraLen;
        ++nIterations;
        // Tier-up check on the backward transfer: the jumping trace's
        // hotness is its execution count (bumped at entry and on every
        // self-loop below). Queue, don't promote — swapping the program
        // mid-run is unsafe; the dispatch glue drains between runs.
        if (params.tierMode == TierMode::Multi && t->tier == 1 &&
            !t->promotionRequested &&
            t->executions >= uint64_t(params.tier2Threshold)) {
            t->promotionRequested = true;
            pendingPromotions.push_back(t->id);
        }
        if (mop->aux == 0) {
            // Self loop: stage reads before overwriting the inputs.
            XLVM_ASSERT(n == t->numInputs, "jump arity mismatch");
            scratch.resize(n);
            for (uint32_t i = 0; i < n; ++i)
                scratch[i] = R[ax[i]];
            for (uint32_t i = 0; i < n; ++i)
                R[i] = scratch[i];
            ++t->executions;
        } else {
            scratch.resize(n);
            for (uint32_t i = 0; i < n; ++i)
                scratch[i] = R[ax[i]];
            enterTrace(registry.byId(mop->aux - 1), scratch);
            active.back().trace = t;
        }
        RESTART();
    }

    OP(Finish) : {
        BEGIN();
        e.alu(2);
        return leave(blackholeMaterialize(space, *t,
                                          t->snapshots[mop->snapshotIdx],
                                          regs, mop->origIdx));
    }

    // ---- guards -----------------------------------------------------
    OP(GuardTrue) : {
        BEGIN();
        bool ok = RA.i != 0;
        e.alu(1);
        e.branch(!ok);
        if (__builtin_expect(ok, 1))
            NEXT();
        GUARD_EXIT();
    }

    OP(GuardFalse) : {
        BEGIN();
        bool ok = RA.i == 0;
        e.alu(1);
        e.branch(!ok);
        if (__builtin_expect(ok, 1))
            NEXT();
        GUARD_EXIT();
    }

    OP(GuardClass) : {
        BEGIN();
        W_Object *w = asObj(RA);
        e.loadPtr(w, loadStall);
        e.alu(1);
        bool ok = w && w->typeId() == mop->aux;
        e.branch(!ok);
        if (__builtin_expect(ok, 1))
            NEXT();
        GUARD_EXIT();
    }

    OP(GuardValue) : {
        BEGIN();
        e.alu(1);
        bool ok = uint64_t(RA.i) == mop->expect;
        e.branch(!ok);
        if (__builtin_expect(ok, 1))
            NEXT();
        GUARD_EXIT();
    }

    OP(GuardNonnull) : {
        BEGIN();
        bool ok = RA.r != nullptr;
        e.alu(1);
        e.branch(!ok);
        if (__builtin_expect(ok, 1))
            NEXT();
        GUARD_EXIT();
    }

    OP(GuardIsnull) : {
        BEGIN();
        bool ok = RA.r == nullptr;
        e.alu(1);
        e.branch(!ok);
        if (__builtin_expect(ok, 1))
            NEXT();
        GUARD_EXIT();
    }

    OP(GuardNoOverflow) : {
        BEGIN();
        bool ok = !pendingOverflow;
        e.branch(!ok);
        if (__builtin_expect(ok, 1))
            NEXT();
        GUARD_EXIT();
    }

    // ---- integer ----------------------------------------------------
    OP(IntAdd) : {
        BEGIN();
        e.alu(1);
        SETRES(RtVal::fromInt(int64_t(uint64_t(RA.i) + uint64_t(RB.i))));
        NEXT();
    }

    OP(IntSub) : {
        BEGIN();
        e.alu(1);
        SETRES(RtVal::fromInt(int64_t(uint64_t(RA.i) - uint64_t(RB.i))));
        NEXT();
    }

    OP(IntMul) : {
        BEGIN();
        e.mul();
        SETRES(RtVal::fromInt(int64_t(uint64_t(RA.i) * uint64_t(RB.i))));
        NEXT();
    }

    OP(IntAddOvf) : {
        BEGIN();
        e.alu(1);
        int64_t r;
        pendingOverflow = __builtin_add_overflow(RA.i, RB.i, &r);
        SETRES(RtVal::fromInt(r));
        NEXT();
    }

    OP(IntSubOvf) : {
        BEGIN();
        e.alu(1);
        int64_t r;
        pendingOverflow = __builtin_sub_overflow(RA.i, RB.i, &r);
        SETRES(RtVal::fromInt(r));
        NEXT();
    }

    OP(IntMulOvf) : {
        BEGIN();
        e.alu(1);
        int64_t r;
        pendingOverflow = __builtin_mul_overflow(RA.i, RB.i, &r);
        SETRES(RtVal::fromInt(r));
        NEXT();
    }

    OP(IntFloordiv) : {
        BEGIN();
        e.div();
        e.alu(3);
        int64_t a = RA.i, b = RB.i;
        XLVM_ASSERT(b != 0, "division by zero in trace");
        int64_t q = a / b;
        if ((a % b != 0) && ((a < 0) != (b < 0)))
            --q;
        SETRES(RtVal::fromInt(q));
        NEXT();
    }

    OP(IntMod) : {
        BEGIN();
        e.div();
        e.alu(3);
        int64_t a = RA.i, b = RB.i;
        XLVM_ASSERT(b != 0, "modulo by zero in trace");
        int64_t r = a % b;
        if (r != 0 && ((r < 0) != (b < 0)))
            r += b;
        SETRES(RtVal::fromInt(r));
        NEXT();
    }

    OP(IntAnd) : {
        BEGIN();
        e.alu(1);
        SETRES(RtVal::fromInt(RA.i & RB.i));
        NEXT();
    }

    OP(IntOr) : {
        BEGIN();
        e.alu(1);
        SETRES(RtVal::fromInt(RA.i | RB.i));
        NEXT();
    }

    OP(IntXor) : {
        BEGIN();
        e.alu(1);
        SETRES(RtVal::fromInt(RA.i ^ RB.i));
        NEXT();
    }

    OP(IntLshift) : {
        BEGIN();
        e.alu(1);
        SETRES(RtVal::fromInt(int64_t(uint64_t(RA.i) << (RB.i & 63))));
        NEXT();
    }

    OP(IntRshift) : {
        BEGIN();
        e.alu(1);
        SETRES(RtVal::fromInt(RA.i >> (RB.i & 63)));
        NEXT();
    }

    OP(IntNeg) : {
        BEGIN();
        e.alu(1);
        SETRES(RtVal::fromInt(-RA.i));
        NEXT();
    }

    OP(IntLt) : {
        BEGIN();
        e.alu(2);
        SETRES(RtVal::fromInt(RA.i < RB.i));
        NEXT();
    }

    OP(IntLe) : {
        BEGIN();
        e.alu(2);
        SETRES(RtVal::fromInt(RA.i <= RB.i));
        NEXT();
    }

    OP(IntEq) : {
        BEGIN();
        e.alu(2);
        SETRES(RtVal::fromInt(RA.i == RB.i));
        NEXT();
    }

    OP(IntNe) : {
        BEGIN();
        e.alu(2);
        SETRES(RtVal::fromInt(RA.i != RB.i));
        NEXT();
    }

    OP(IntGt) : {
        BEGIN();
        e.alu(2);
        SETRES(RtVal::fromInt(RA.i > RB.i));
        NEXT();
    }

    OP(IntGe) : {
        BEGIN();
        e.alu(2);
        SETRES(RtVal::fromInt(RA.i >= RB.i));
        NEXT();
    }

    OP(IntIsZero) : {
        BEGIN();
        e.alu(2);
        SETRES(RtVal::fromInt(RA.i == 0));
        NEXT();
    }

    OP(IntIsTrue) : {
        BEGIN();
        e.alu(2);
        SETRES(RtVal::fromInt(RA.i != 0));
        NEXT();
    }

    // ---- float ------------------------------------------------------
    OP(FloatAdd) : {
        BEGIN();
        e.fpAlu(1);
        SETRES(RtVal::fromFloat(RA.f + RB.f));
        NEXT();
    }

    OP(FloatSub) : {
        BEGIN();
        e.fpAlu(1);
        SETRES(RtVal::fromFloat(RA.f - RB.f));
        NEXT();
    }

    OP(FloatMul) : {
        BEGIN();
        e.fpMul();
        SETRES(RtVal::fromFloat(RA.f * RB.f));
        NEXT();
    }

    OP(FloatTruediv) : {
        BEGIN();
        e.fpDiv();
        SETRES(RtVal::fromFloat(RA.f / RB.f));
        NEXT();
    }

    OP(FloatNeg) : {
        BEGIN();
        e.fpAlu(1);
        SETRES(RtVal::fromFloat(-RA.f));
        NEXT();
    }

    OP(FloatAbs) : {
        BEGIN();
        e.fpAlu(1);
        SETRES(RtVal::fromFloat(std::fabs(RA.f)));
        NEXT();
    }

    OP(FloatLt) : {
        BEGIN();
        e.fpAlu(1);
        e.alu(1);
        SETRES(RtVal::fromInt(RA.f < RB.f));
        NEXT();
    }

    OP(FloatLe) : {
        BEGIN();
        e.fpAlu(1);
        e.alu(1);
        SETRES(RtVal::fromInt(RA.f <= RB.f));
        NEXT();
    }

    OP(FloatEq) : {
        BEGIN();
        e.fpAlu(1);
        e.alu(1);
        SETRES(RtVal::fromInt(RA.f == RB.f));
        NEXT();
    }

    OP(FloatNe) : {
        BEGIN();
        e.fpAlu(1);
        e.alu(1);
        SETRES(RtVal::fromInt(RA.f != RB.f));
        NEXT();
    }

    OP(FloatGt) : {
        BEGIN();
        e.fpAlu(1);
        e.alu(1);
        SETRES(RtVal::fromInt(RA.f > RB.f));
        NEXT();
    }

    OP(FloatGe) : {
        BEGIN();
        e.fpAlu(1);
        e.alu(1);
        SETRES(RtVal::fromInt(RA.f >= RB.f));
        NEXT();
    }

    OP(CastIntToFloat) : {
        BEGIN();
        e.fpAlu(1);
        SETRES(RtVal::fromFloat(double(RA.i)));
        NEXT();
    }

    OP(CastFloatToInt) : {
        BEGIN();
        e.fpAlu(1);
        SETRES(RtVal::fromInt(int64_t(RA.f)));
        NEXT();
    }

    // ---- pointer ----------------------------------------------------
    OP(PtrEq) : {
        BEGIN();
        e.alu(2);
        SETRES(RtVal::fromInt(RA.r == RB.r));
        NEXT();
    }

    OP(PtrNe) : {
        BEGIN();
        e.alu(2);
        SETRES(RtVal::fromInt(RA.r != RB.r));
        NEXT();
    }

    OP(SameAs) : {
        BEGIN();
        e.alu(1);
        SETRES(RA);
        NEXT();
    }

    // ---- memory -----------------------------------------------------
    OP(GetfieldGc) : {
        BEGIN();
        W_Object *w = asObj(RA);
        e.loadPtrOff(w, 8 + uint64_t(mop->aux) * 8, loadStall);
        SETRES(w->rtGetField(mop->aux));
        NEXT();
    }

    OP(SetfieldGc) : {
        BEGIN();
        W_Object *w = asObj(RA);
        e.storePtrOff(w, 8 + uint64_t(mop->aux) * 8);
        e.alu(1);
        e.branch(false); // write-barrier fast path
        w->rtSetField(mop->aux, RB, space.heap());
        NEXT();
    }

    OP(GetarrayitemGc) : {
        BEGIN();
        W_Object *w = asObj(RA);
        int64_t i = RB.i;
        e.alu(1);
        e.loadPtrOff(w, 32 + uint64_t(i) * 8, loadStall);
        SETRES(w->rtGetItem(i));
        NEXT();
    }

    OP(SetarrayitemGc) : {
        BEGIN();
        W_Object *w = asObj(RA);
        int64_t i = RB.i;
        e.alu(1);
        e.storePtrOff(w, 32 + uint64_t(i) * 8);
        e.branch(false);
        w->rtSetItem(i, RC, space.heap());
        NEXT();
    }

    OP(ArraylenGc) : {
        BEGIN();
        W_Object *w = asObj(RA);
        e.loadPtrOff(w, 16, 1);
        SETRES(RtVal::fromInt(w->rtLen()));
        NEXT();
    }

    OP(Strlen) : {
        BEGIN();
        W_Object *w = asObj(RA);
        e.loadPtrOff(w, 16, 1);
        SETRES(RtVal::fromInt(w->rtLen()));
        NEXT();
    }

    OP(Strgetitem) : {
        BEGIN();
        W_Object *w = asObj(RA);
        int64_t i = RB.i;
        e.alu(1);
        e.loadPtrOff(w, 32 + uint64_t(i), 1);
        SETRES(w->rtGetItem(i));
        NEXT();
    }

    // ---- allocation -------------------------------------------------
    OP(NewWithVtable) : {
        // Nursery bump + header init.
        const uint64_t pc = codePc + mop->pcOff;
        sim::BlockEmitter e(core, pc);
        if (annotate && mop->nodeId >= 0)
            e.annot(xlayer::kIrNode, uint32_t(mop->nodeId));
        e.load(codePc + 8, 1);
        e.alu(3);
        e.branch(false);
        e.store(pc + 16);
        e.store(pc + 24);
        e.alu(1);
        W_Object *w = allocByTypeId(space, mop->aux);
        SETRES(RtVal::fromRef(w));
        NEXT();
    }

    // ---- calls ------------------------------------------------------
    OP(Call) : OP(CallPure) : OP(CallMayForce) : {
        const uint64_t pc = codePc + mop->pcOff;
        sim::BlockEmitter e(core, pc);
        if (annotate && mop->nodeId >= 0)
            e.annot(xlayer::kIrNode, uint32_t(mop->nodeId));
        const uint32_t n = mop->callInsts;
        e.alu(n / 2 - 1);
        uint64_t target = rt::AotRegistry::instance().fn(mop->aux).codePc;
        e.call(target);
        RtVal res = performCall(*mop, R);
        sim::BlockEmitter e2(core, pc + (n / 2 + 1) * 4);
        e2.ret(pc + (n / 2) * 4);
        e2.alu(n - n / 2 - 2);
        SETRES(res);
        NEXT();
    }

    OP(CallAssembler) : {
        // innerIn and innerState own heap memory: they must die at the
        // end of this block, before NEXT() (see the note above OP()).
        {
            const uint64_t pc = codePc + mop->pcOff;
            sim::BlockEmitter e(core, pc);
            if (annotate && mop->nodeId >= 0)
                e.annot(xlayer::kIrNode, uint32_t(mop->nodeId));
            const uint32_t n = mop->callInsts;
            e.alu(n / 2 - 1);
            Trace *inner = registry.byId(mop->aux);
            e.call(inner->codePc);
            const jit::Snapshot &snap = t->snapshots[mop->snapshotIdx];
            std::vector<RtVal> innerIn;
            innerIn.reserve(mop->extraLen);
            {
                const uint32_t *ax = prog->extra.data() + mop->extraOff;
                for (uint32_t i = 0; i < mop->extraLen; ++i)
                    innerIn.push_back(R[ax[i]]);
            }
            // On an unexpected inner exit the full interpreter state is
            // the call's recorded outer-frame snapshot (frames[2..])
            // plus whatever the inner execution reports.
            auto outerFrames = [&]() {
                jit::Snapshot outerSnap;
                outerSnap.frames.assign(snap.frames.begin() + 2,
                                        snap.frames.end());
                return materializeState(space, *t, outerSnap, regs);
            };
            if (runDepth >= 16) {
                // Mutually recursive call_assembler chains are bounded
                // here: the call arguments ARE the inner loop's anchor
                // frame state, so deoptimize straight to it and let the
                // interpreter make progress.
                DeoptResult st = outerFrames();
                st.traceId = t->id;
                FrameState fs;
                fs.code = inner->anchorCode;
                fs.pc = inner->anchorPc;
                for (size_t i = 0; i < innerIn.size(); ++i) {
                    W_Object *w = asObj(innerIn[i]);
                    if (i < inner->anchorNumLocals)
                        fs.locals.push_back(w);
                    else
                        fs.stack.push_back(w);
                }
                st.frames.push_back(std::move(fs));
                return leave(std::move(st));
            }
            ++runDepth;
            DeoptResult innerState = run(*inner, innerIn);
            --runDepth;
            // The nested run flushed tier attribution and closed with tier
            // 0; cycles from here on belong to this (outer) trace's tier.
            curTier = t->tier;
            sim::BlockEmitter e2(core, pc + (n / 2 + 1) * 4);
            e2.ret(pc + (n / 2) * 4);
            e2.alu(n - n / 2 - 2);

            // Validate the expected exit contract.
            const jit::FrameSnapshot &outs = snap.frames[1];
            bool match = innerState.frames.size() == 1 &&
                         innerState.frames[0].code == outs.code &&
                         innerState.frames[0].pc == uint32_t(mop->expect) &&
                         innerState.frames[0].locals.size() ==
                             outs.locals.size() &&
                         innerState.frames[0].stack.size() ==
                             outs.stack.size();
            if (!match) {
                DeoptResult full = outerFrames();
                full.traceId = innerState.traceId;
                for (FrameState &fs : innerState.frames)
                    full.frames.push_back(std::move(fs));
                return leave(std::move(full));
            }
            for (size_t i = 0; i < outs.locals.size(); ++i) {
                if (outs.locals[i] >= 0) {
                    R[outs.locals[i]] =
                        RtVal::fromRef(innerState.frames[0].locals[i]);
                }
            }
            for (size_t i = 0; i < outs.stack.size(); ++i) {
                if (outs.stack[i] >= 0) {
                    R[outs.stack[i]] =
                        RtVal::fromRef(innerState.frames[0].stack[i]);
                }
            }
        }
        NEXT();
    }

    // ---- superinstructions ------------------------------------------
    // Each fused handler emits the exact instruction stream of its two
    // constituents (two emitters at the constituents' own code offsets)
    // around a single host dispatch.

#define FUSED_CMP_GUARD(NAME, COND, ON_TRUE)                            \
    OP(NAME) : {                                                        \
        BEGIN();                                                        \
        e.alu(2);                                                       \
        bool cond = (COND);                                             \
        SETRES(RtVal::fromInt(cond));                                   \
        BEGIN2();                                                       \
        e2.alu(1);                                                      \
        bool ok = (ON_TRUE) ? cond : !cond;                             \
        e2.branch(!ok);                                                 \
        if (__builtin_expect(ok, 1))                                    \
            NEXT();                                                     \
        GUARD_EXIT();                                                   \
    }

    FUSED_CMP_GUARD(FuseLtGuardTrue, RA.i < RB.i, true)
    FUSED_CMP_GUARD(FuseLtGuardFalse, RA.i < RB.i, false)
    FUSED_CMP_GUARD(FuseLeGuardTrue, RA.i <= RB.i, true)
    FUSED_CMP_GUARD(FuseLeGuardFalse, RA.i <= RB.i, false)
    FUSED_CMP_GUARD(FuseEqGuardTrue, RA.i == RB.i, true)
    FUSED_CMP_GUARD(FuseEqGuardFalse, RA.i == RB.i, false)
    FUSED_CMP_GUARD(FuseNeGuardTrue, RA.i != RB.i, true)
    FUSED_CMP_GUARD(FuseNeGuardFalse, RA.i != RB.i, false)
    FUSED_CMP_GUARD(FuseGtGuardTrue, RA.i > RB.i, true)
    FUSED_CMP_GUARD(FuseGtGuardFalse, RA.i > RB.i, false)
    FUSED_CMP_GUARD(FuseGeGuardTrue, RA.i >= RB.i, true)
    FUSED_CMP_GUARD(FuseGeGuardFalse, RA.i >= RB.i, false)
    FUSED_CMP_GUARD(FuseIsZeroGuardTrue, RA.i == 0, true)
    FUSED_CMP_GUARD(FuseIsZeroGuardFalse, RA.i == 0, false)
    FUSED_CMP_GUARD(FuseIsTrueGuardTrue, RA.i != 0, true)
    FUSED_CMP_GUARD(FuseIsTrueGuardFalse, RA.i != 0, false)

#undef FUSED_CMP_GUARD

    OP(FuseGetfieldGuardClass) : {
        BEGIN();
        W_Object *w = asObj(RA);
        e.loadPtrOff(w, 8 + uint64_t(mop->aux) * 8, loadStall);
        RtVal v = w->rtGetField(mop->aux);
        SETRES(v);
        BEGIN2();
        W_Object *w2 = asObj(v);
        e2.loadPtr(w2, loadStall);
        e2.alu(1);
        bool ok = w2 && w2->typeId() == mop->aux2;
        e2.branch(!ok);
        if (__builtin_expect(ok, 1))
            NEXT();
        GUARD_EXIT();
    }

#define FUSED_OVF_GUARD(NAME, BUILTIN)                                  \
    OP(NAME) : {                                                        \
        BEGIN();                                                        \
        e.alu(1);                                                       \
        int64_t r;                                                      \
        pendingOverflow = BUILTIN(RA.i, RB.i, &r);                      \
        SETRES(RtVal::fromInt(r));                                      \
        BEGIN2();                                                       \
        bool ok = !pendingOverflow;                                     \
        e2.branch(!ok);                                                 \
        if (__builtin_expect(ok, 1))                                    \
            NEXT();                                                     \
        GUARD_EXIT();                                                   \
    }

    FUSED_OVF_GUARD(FuseAddOvfGuard, __builtin_add_overflow)
    FUSED_OVF_GUARD(FuseSubOvfGuard, __builtin_sub_overflow)
    FUSED_OVF_GUARD(FuseMulOvfGuard, __builtin_mul_overflow)

#undef FUSED_OVF_GUARD

    // ---- engine-internal --------------------------------------------
    OP(Unimpl) : {
        XLVM_PANIC("executor: unhandled op ",
                   jit::irOpName(IrOp(mop->aux2)));
    }

    OP(TrapEnd) : {
        XLVM_PANIC("executor: ran off trace end (trace ", t->id, ")");
    }

#undef OP
#undef DISPATCH
#undef NEXT
#undef RESTART
#undef GUARD_EXIT
#undef BEGIN
#undef BEGIN2
#undef RA
#undef RB
#undef RC
#undef SETRES
}

} // namespace vm
} // namespace xlvm
