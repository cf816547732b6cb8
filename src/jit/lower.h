/**
 * @file
 * Trace pre-lowering: the micro-op execution format.
 *
 * At Backend::compile time every optimized trace is translated once into
 * a compact linear micro-op program — one fixed-size struct per op with
 * the dispatch handler slot pre-resolved (patched to a computed-goto
 * label by the executor on first entry), operand references pre-decoded
 * to direct register-file indices (trace constants are materialized into
 * the tail of the register file, so operand fetch is a single indexed
 * load with no const/box branch), and all per-op simulation metadata
 * (code offsets, global IR-node ids, guard/snapshot indices) baked in.
 *
 * A fusion pass collapses the dominant adjacent IR pairs into
 * superinstructions with a single dispatch:
 *
 *   int_lt/le/eq/ne/gt/ge/is_zero/is_true  ->  guard_true/guard_false
 *   getfield_gc                            ->  guard_class
 *   int_add_ovf/int_sub_ovf/int_mul_ovf    ->  guard_no_overflow
 *
 * Fusion changes host dispatch only: a fused handler emits the exact
 * same simulated instruction sequence (same PCs, same order) as the two
 * unfused handlers would, so every cross-layer counter is bit-identical
 * with fusion on or off (tests/test_microop.cc proves this differentially
 * and the tests/golden/ gate proves it against the pre-rewrite engine).
 */

#ifndef XLVM_JIT_LOWER_H
#define XLVM_JIT_LOWER_H

#include <vector>

#include "jit/ir.h"

namespace xlvm {
namespace jit {

/**
 * Micro-opcodes. The first block mirrors the IrOp vocabulary 1:1; the
 * second block holds the fused superinstructions; the trailing entries
 * are engine-internal.
 */
enum class MOp : uint16_t
{
    // control
    Label,
    DebugMergePoint,
    Jump,
    Finish,

    // guards
    GuardTrue,
    GuardFalse,
    GuardClass,
    GuardValue,
    GuardNonnull,
    GuardIsnull,
    GuardNoOverflow,

    // integer
    IntAdd,
    IntSub,
    IntMul,
    IntFloordiv,
    IntMod,
    IntAnd,
    IntOr,
    IntXor,
    IntLshift,
    IntRshift,
    IntNeg,
    IntAddOvf,
    IntSubOvf,
    IntMulOvf,
    IntLt,
    IntLe,
    IntEq,
    IntNe,
    IntGt,
    IntGe,
    IntIsZero,
    IntIsTrue,

    // float
    FloatAdd,
    FloatSub,
    FloatMul,
    FloatTruediv,
    FloatNeg,
    FloatAbs,
    FloatLt,
    FloatLe,
    FloatEq,
    FloatNe,
    FloatGt,
    FloatGe,
    CastIntToFloat,
    CastFloatToInt,

    // pointer
    PtrEq,
    PtrNe,
    SameAs,

    // memory
    GetfieldGc,
    SetfieldGc,
    GetarrayitemGc,
    SetarrayitemGc,
    ArraylenGc,
    Strlen,
    Strgetitem,

    // allocation
    NewWithVtable,

    // calls
    Call,
    CallPure,
    CallMayForce,
    CallAssembler,

    // ---- superinstructions -----------------------------------------
    FuseLtGuardTrue,
    FuseLtGuardFalse,
    FuseLeGuardTrue,
    FuseLeGuardFalse,
    FuseEqGuardTrue,
    FuseEqGuardFalse,
    FuseNeGuardTrue,
    FuseNeGuardFalse,
    FuseGtGuardTrue,
    FuseGtGuardFalse,
    FuseGeGuardTrue,
    FuseGeGuardFalse,
    FuseIsZeroGuardTrue,
    FuseIsZeroGuardFalse,
    FuseIsTrueGuardTrue,
    FuseIsTrueGuardFalse,
    FuseGetfieldGuardClass,
    FuseAddOvfGuard,
    FuseSubOvfGuard,
    FuseMulOvfGuard,

    // ---- engine-internal --------------------------------------------
    Unimpl,  ///< IR op with no executor semantics (panics if reached)
    TrapEnd, ///< sentinel after the last op (catches fall-through)

    NumMOps
};

constexpr uint32_t kNumMOps = static_cast<uint32_t>(MOp::NumMOps);

const char *mopName(MOp m);

/** True for superinstructions produced by the fusion pass. */
bool isFusedMOp(MOp m);

/**
 * One pre-decoded micro-op (fixed size, cache-line friendly). Operand
 * slots index the unified register file directly; everything the
 * executor needs per dispatch is inline.
 */
struct MicroOp
{
    /** Dispatch handler; patched by the executor on first program entry
     *  (computed-goto label address, or unused in switch fallback). */
    const void *handler = nullptr;
    uint16_t opcode = 0; ///< MOp
    uint8_t argMask = 0; ///< bit i set when ResOp arg i was present
    uint8_t callInsts = 0; ///< loweredInstCount for Call* ops
    uint32_t arg[kMaxOpArgs] = {0, 0, 0, 0}; ///< register-file indices
    int32_t res = -1;    ///< result register, or -1
    uint32_t aux = 0;    ///< first constituent's immediate
    uint32_t aux2 = 0;   ///< fused guard's immediate (e.g. class id)
    uint64_t expect = 0; ///< GuardValue bits / call semantic tag
    uint32_t pcOff = 0;  ///< byte offset of the op's code from codePc
    uint32_t pcOff2 = 0; ///< byte offset of the fused guard's code
    int32_t nodeId = -1; ///< global IR-node id (-1: not counted)
    int32_t nodeId2 = -1; ///< fused guard's IR-node id
    int32_t snapshotIdx = -1;
    uint32_t origIdx = 0;  ///< index of the op in Trace::ops
    uint32_t guardIdx = 0; ///< Trace::ops index of the guard constituent
    uint32_t extraOff = 0; ///< into MicroProgram::extra (jump/call args)
    uint32_t extraLen = 0;
};

/**
 * Provenance for one guard site, recorded at lowering time so deopt
 * attribution can name the guard (IR op), point back at the bytecode
 * that produced it (the nearest preceding debug_merge_point's dispatch
 * payload), and say how the executor actually dispatches it (fused
 * superinstruction or standalone). Joined at collection time with the
 * trace's GuardState fail counters — see report/profile_export.h.
 */
struct GuardProvenance
{
    uint32_t guardIdx = 0; ///< Trace::ops index of the guard constituent
    IrOp op = IrOp::GuardTrue; ///< the guard's IR opcode
    /** Bytecode pc of the nearest preceding merge point (0 when the
     *  guard precedes the first merge point, e.g. entry type guards). */
    uint32_t originPc = 0;
    bool fused = false; ///< consumed by a superinstruction
    uint16_t mop = 0;   ///< executing MOp (the superinstruction if fused)
};

/** The pre-lowered form of one compiled trace. */
struct MicroProgram
{
    std::vector<MicroOp> ops;
    /** Pre-decoded register indices for Jump / CallAssembler argument
     *  lists (the anchor snapshot's frames[0].stack refs). */
    std::vector<uint32_t> extra;
    /** One entry per guard site, in trace order (see GuardProvenance). */
    std::vector<GuardProvenance> guards;
    uint32_t numRegs = 0;   ///< boxes + materialized consts
    uint32_t constBase = 0; ///< first constant register (== num boxes)
    uint32_t numConsts = 0; ///< consts materialized at trace entry
    uint32_t fusedPairs = 0;
    bool resolved = false; ///< handler pointers patched
};

/**
 * Lower @p trace into a micro-op program. @p offsets / @p node_ids are
 * the backend's per-op code offsets and global IR-node ids (parallel to
 * trace.ops). @p fuse enables the superinstruction pass.
 */
MicroProgram lowerTrace(const Trace &trace,
                        const std::vector<uint32_t> &offsets,
                        const std::vector<int32_t> &node_ids, bool fuse);

} // namespace jit
} // namespace xlvm

#endif // XLVM_JIT_LOWER_H
