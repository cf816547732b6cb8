#include "jit/lower.h"

#include "jit/backend.h"

namespace xlvm {
namespace jit {

namespace {

/** 1:1 micro-opcode for an unfused IR op (Unimpl when the executor has
 *  no semantics for it — e.g. NewArray, which is always virtualized). */
MOp
directMOp(IrOp op)
{
    switch (op) {
      case IrOp::Label:           return MOp::Label;
      case IrOp::DebugMergePoint: return MOp::DebugMergePoint;
      case IrOp::Jump:            return MOp::Jump;
      case IrOp::Finish:          return MOp::Finish;

      case IrOp::GuardTrue:       return MOp::GuardTrue;
      case IrOp::GuardFalse:      return MOp::GuardFalse;
      case IrOp::GuardClass:      return MOp::GuardClass;
      case IrOp::GuardValue:      return MOp::GuardValue;
      case IrOp::GuardNonnull:    return MOp::GuardNonnull;
      case IrOp::GuardIsnull:     return MOp::GuardIsnull;
      case IrOp::GuardNoOverflow: return MOp::GuardNoOverflow;

      case IrOp::IntAdd:      return MOp::IntAdd;
      case IrOp::IntSub:      return MOp::IntSub;
      case IrOp::IntMul:      return MOp::IntMul;
      case IrOp::IntFloordiv: return MOp::IntFloordiv;
      case IrOp::IntMod:      return MOp::IntMod;
      case IrOp::IntAnd:      return MOp::IntAnd;
      case IrOp::IntOr:       return MOp::IntOr;
      case IrOp::IntXor:      return MOp::IntXor;
      case IrOp::IntLshift:   return MOp::IntLshift;
      case IrOp::IntRshift:   return MOp::IntRshift;
      case IrOp::IntNeg:      return MOp::IntNeg;
      case IrOp::IntAddOvf:   return MOp::IntAddOvf;
      case IrOp::IntSubOvf:   return MOp::IntSubOvf;
      case IrOp::IntMulOvf:   return MOp::IntMulOvf;
      case IrOp::IntLt:       return MOp::IntLt;
      case IrOp::IntLe:       return MOp::IntLe;
      case IrOp::IntEq:       return MOp::IntEq;
      case IrOp::IntNe:       return MOp::IntNe;
      case IrOp::IntGt:       return MOp::IntGt;
      case IrOp::IntGe:       return MOp::IntGe;
      case IrOp::IntIsZero:   return MOp::IntIsZero;
      case IrOp::IntIsTrue:   return MOp::IntIsTrue;

      case IrOp::FloatAdd:       return MOp::FloatAdd;
      case IrOp::FloatSub:       return MOp::FloatSub;
      case IrOp::FloatMul:       return MOp::FloatMul;
      case IrOp::FloatTruediv:   return MOp::FloatTruediv;
      case IrOp::FloatNeg:       return MOp::FloatNeg;
      case IrOp::FloatAbs:       return MOp::FloatAbs;
      case IrOp::FloatLt:        return MOp::FloatLt;
      case IrOp::FloatLe:        return MOp::FloatLe;
      case IrOp::FloatEq:        return MOp::FloatEq;
      case IrOp::FloatNe:        return MOp::FloatNe;
      case IrOp::FloatGt:        return MOp::FloatGt;
      case IrOp::FloatGe:        return MOp::FloatGe;
      case IrOp::CastIntToFloat: return MOp::CastIntToFloat;
      case IrOp::CastFloatToInt: return MOp::CastFloatToInt;

      case IrOp::PtrEq:  return MOp::PtrEq;
      case IrOp::PtrNe:  return MOp::PtrNe;
      case IrOp::SameAs: return MOp::SameAs;

      case IrOp::GetfieldGc:     return MOp::GetfieldGc;
      case IrOp::SetfieldGc:     return MOp::SetfieldGc;
      case IrOp::GetarrayitemGc: return MOp::GetarrayitemGc;
      case IrOp::SetarrayitemGc: return MOp::SetarrayitemGc;
      case IrOp::ArraylenGc:     return MOp::ArraylenGc;
      case IrOp::Strlen:         return MOp::Strlen;
      case IrOp::Strgetitem:     return MOp::Strgetitem;

      case IrOp::NewWithVtable: return MOp::NewWithVtable;

      case IrOp::Call:          return MOp::Call;
      case IrOp::CallPure:      return MOp::CallPure;
      case IrOp::CallMayForce:  return MOp::CallMayForce;
      case IrOp::CallAssembler: return MOp::CallAssembler;

      default:
        return MOp::Unimpl;
    }
}

/** Superinstruction for (first, guard) when the pair is fusible. */
MOp
fusedMOp(const ResOp &first, const ResOp &guard)
{
    // The guard must consume the producing op's result directly; for the
    // overflow guards the pairing is by the architectural flags instead.
    bool consumes =
        first.result >= 0 && guard.args[0] == first.result;

    switch (first.op) {
      case IrOp::IntLt:
        if (!consumes) return MOp::Unimpl;
        if (guard.op == IrOp::GuardTrue)  return MOp::FuseLtGuardTrue;
        if (guard.op == IrOp::GuardFalse) return MOp::FuseLtGuardFalse;
        return MOp::Unimpl;
      case IrOp::IntLe:
        if (!consumes) return MOp::Unimpl;
        if (guard.op == IrOp::GuardTrue)  return MOp::FuseLeGuardTrue;
        if (guard.op == IrOp::GuardFalse) return MOp::FuseLeGuardFalse;
        return MOp::Unimpl;
      case IrOp::IntEq:
        if (!consumes) return MOp::Unimpl;
        if (guard.op == IrOp::GuardTrue)  return MOp::FuseEqGuardTrue;
        if (guard.op == IrOp::GuardFalse) return MOp::FuseEqGuardFalse;
        return MOp::Unimpl;
      case IrOp::IntNe:
        if (!consumes) return MOp::Unimpl;
        if (guard.op == IrOp::GuardTrue)  return MOp::FuseNeGuardTrue;
        if (guard.op == IrOp::GuardFalse) return MOp::FuseNeGuardFalse;
        return MOp::Unimpl;
      case IrOp::IntGt:
        if (!consumes) return MOp::Unimpl;
        if (guard.op == IrOp::GuardTrue)  return MOp::FuseGtGuardTrue;
        if (guard.op == IrOp::GuardFalse) return MOp::FuseGtGuardFalse;
        return MOp::Unimpl;
      case IrOp::IntGe:
        if (!consumes) return MOp::Unimpl;
        if (guard.op == IrOp::GuardTrue)  return MOp::FuseGeGuardTrue;
        if (guard.op == IrOp::GuardFalse) return MOp::FuseGeGuardFalse;
        return MOp::Unimpl;
      case IrOp::IntIsZero:
        if (!consumes) return MOp::Unimpl;
        if (guard.op == IrOp::GuardTrue)  return MOp::FuseIsZeroGuardTrue;
        if (guard.op == IrOp::GuardFalse) return MOp::FuseIsZeroGuardFalse;
        return MOp::Unimpl;
      case IrOp::IntIsTrue:
        if (!consumes) return MOp::Unimpl;
        if (guard.op == IrOp::GuardTrue)  return MOp::FuseIsTrueGuardTrue;
        if (guard.op == IrOp::GuardFalse) return MOp::FuseIsTrueGuardFalse;
        return MOp::Unimpl;

      case IrOp::GetfieldGc:
        if (consumes && guard.op == IrOp::GuardClass)
            return MOp::FuseGetfieldGuardClass;
        return MOp::Unimpl;

      case IrOp::IntAddOvf:
        if (guard.op == IrOp::GuardNoOverflow) return MOp::FuseAddOvfGuard;
        return MOp::Unimpl;
      case IrOp::IntSubOvf:
        if (guard.op == IrOp::GuardNoOverflow) return MOp::FuseSubOvfGuard;
        return MOp::Unimpl;
      case IrOp::IntMulOvf:
        if (guard.op == IrOp::GuardNoOverflow) return MOp::FuseMulOvfGuard;
        return MOp::Unimpl;

      default:
        return MOp::Unimpl;
    }
}

} // namespace

bool
isFusedMOp(MOp m)
{
    return m >= MOp::FuseLtGuardTrue && m <= MOp::FuseMulOvfGuard;
}

const char *
mopName(MOp m)
{
    switch (m) {
      case MOp::Label:              return "label";
      case MOp::DebugMergePoint:    return "debug_merge_point";
      case MOp::Jump:               return "jump";
      case MOp::Finish:             return "finish";
      case MOp::GuardTrue:          return "guard_true";
      case MOp::GuardFalse:         return "guard_false";
      case MOp::GuardClass:         return "guard_class";
      case MOp::GuardValue:         return "guard_value";
      case MOp::GuardNonnull:       return "guard_nonnull";
      case MOp::GuardIsnull:        return "guard_isnull";
      case MOp::GuardNoOverflow:    return "guard_no_overflow";
      case MOp::IntAdd:             return "int_add";
      case MOp::IntSub:             return "int_sub";
      case MOp::IntMul:             return "int_mul";
      case MOp::IntFloordiv:        return "int_floordiv";
      case MOp::IntMod:             return "int_mod";
      case MOp::IntAnd:             return "int_and";
      case MOp::IntOr:              return "int_or";
      case MOp::IntXor:             return "int_xor";
      case MOp::IntLshift:          return "int_lshift";
      case MOp::IntRshift:          return "int_rshift";
      case MOp::IntNeg:             return "int_neg";
      case MOp::IntAddOvf:          return "int_add_ovf";
      case MOp::IntSubOvf:          return "int_sub_ovf";
      case MOp::IntMulOvf:          return "int_mul_ovf";
      case MOp::IntLt:              return "int_lt";
      case MOp::IntLe:              return "int_le";
      case MOp::IntEq:              return "int_eq";
      case MOp::IntNe:              return "int_ne";
      case MOp::IntGt:              return "int_gt";
      case MOp::IntGe:              return "int_ge";
      case MOp::IntIsZero:          return "int_is_zero";
      case MOp::IntIsTrue:          return "int_is_true";
      case MOp::FloatAdd:           return "float_add";
      case MOp::FloatSub:           return "float_sub";
      case MOp::FloatMul:           return "float_mul";
      case MOp::FloatTruediv:       return "float_truediv";
      case MOp::FloatNeg:           return "float_neg";
      case MOp::FloatAbs:           return "float_abs";
      case MOp::FloatLt:            return "float_lt";
      case MOp::FloatLe:            return "float_le";
      case MOp::FloatEq:            return "float_eq";
      case MOp::FloatNe:            return "float_ne";
      case MOp::FloatGt:            return "float_gt";
      case MOp::FloatGe:            return "float_ge";
      case MOp::CastIntToFloat:     return "cast_int_to_float";
      case MOp::CastFloatToInt:     return "cast_float_to_int";
      case MOp::PtrEq:              return "ptr_eq";
      case MOp::PtrNe:              return "ptr_ne";
      case MOp::SameAs:             return "same_as";
      case MOp::GetfieldGc:         return "getfield_gc";
      case MOp::SetfieldGc:         return "setfield_gc";
      case MOp::GetarrayitemGc:     return "getarrayitem_gc";
      case MOp::SetarrayitemGc:     return "setarrayitem_gc";
      case MOp::ArraylenGc:         return "arraylen_gc";
      case MOp::Strlen:             return "strlen";
      case MOp::Strgetitem:         return "strgetitem";
      case MOp::NewWithVtable:      return "new_with_vtable";
      case MOp::Call:               return "call";
      case MOp::CallPure:           return "call_pure";
      case MOp::CallMayForce:       return "call_may_force";
      case MOp::CallAssembler:      return "call_assembler";
      case MOp::FuseLtGuardTrue:    return "int_lt+guard_true";
      case MOp::FuseLtGuardFalse:   return "int_lt+guard_false";
      case MOp::FuseLeGuardTrue:    return "int_le+guard_true";
      case MOp::FuseLeGuardFalse:   return "int_le+guard_false";
      case MOp::FuseEqGuardTrue:    return "int_eq+guard_true";
      case MOp::FuseEqGuardFalse:   return "int_eq+guard_false";
      case MOp::FuseNeGuardTrue:    return "int_ne+guard_true";
      case MOp::FuseNeGuardFalse:   return "int_ne+guard_false";
      case MOp::FuseGtGuardTrue:    return "int_gt+guard_true";
      case MOp::FuseGtGuardFalse:   return "int_gt+guard_false";
      case MOp::FuseGeGuardTrue:    return "int_ge+guard_true";
      case MOp::FuseGeGuardFalse:   return "int_ge+guard_false";
      case MOp::FuseIsZeroGuardTrue:  return "int_is_zero+guard_true";
      case MOp::FuseIsZeroGuardFalse: return "int_is_zero+guard_false";
      case MOp::FuseIsTrueGuardTrue:  return "int_is_true+guard_true";
      case MOp::FuseIsTrueGuardFalse: return "int_is_true+guard_false";
      case MOp::FuseGetfieldGuardClass: return "getfield_gc+guard_class";
      case MOp::FuseAddOvfGuard:    return "int_add_ovf+guard_no_overflow";
      case MOp::FuseSubOvfGuard:    return "int_sub_ovf+guard_no_overflow";
      case MOp::FuseMulOvfGuard:    return "int_mul_ovf+guard_no_overflow";
      case MOp::Unimpl:             return "unimpl";
      case MOp::TrapEnd:            return "trap_end";
      default:                      return "?";
    }
}

MicroProgram
lowerTrace(const Trace &trace, const std::vector<uint32_t> &offsets,
           const std::vector<int32_t> &node_ids, bool fuse)
{
    XLVM_ASSERT(offsets.size() == trace.ops.size(),
                "offsets not parallel to ops");
    XLVM_ASSERT(node_ids.size() == trace.ops.size(),
                "node ids not parallel to ops");

    MicroProgram prog;
    prog.constBase = uint32_t(trace.boxTypes.size());
    prog.numConsts = uint32_t(trace.consts.size());
    prog.numRegs = prog.constBase + prog.numConsts;
    prog.ops.reserve(trace.ops.size() + 1);

    auto decode = [&](int32_t ref) -> uint32_t {
        if (ref >= 0) {
            XLVM_ASSERT(uint32_t(ref) < prog.constBase,
                        "operand box out of range");
            return uint32_t(ref);
        }
        XLVM_ASSERT(isConstRef(ref),
                    "operand is neither a box nor a constant");
        return prog.constBase + uint32_t(constIndex(ref));
    };

    auto decodeArgs = [&](const ResOp &op, MicroOp &m) {
        for (int i = 0; i < kMaxOpArgs; ++i) {
            if (op.args[i] == kNoArg)
                continue;
            m.argMask |= uint8_t(1u << i);
            m.arg[i] = decode(op.args[i]);
        }
    };

    auto decodeSnapshotArgs = [&](const ResOp &op, MicroOp &m) {
        // Jump / CallAssembler pass the anchor snapshot's frames[0]
        // stack as arguments; pre-decode those refs once.
        const Snapshot &snap = trace.snapshots[op.snapshotIdx];
        const std::vector<int32_t> &refs = snap.frames[0].stack;
        m.extraOff = uint32_t(prog.extra.size());
        m.extraLen = uint32_t(refs.size());
        for (int32_t r : refs)
            prog.extra.push_back(decode(r));
    };

    // Deopt-attribution provenance: guards inherit the bytecode pc of
    // the nearest preceding merge point (its aux is the dispatch pc).
    uint32_t lastMergePc = 0;

    for (size_t i = 0; i < trace.ops.size(); ++i) {
        const ResOp &op = trace.ops[i];
        if (op.op == IrOp::DebugMergePoint)
            lastMergePc = op.aux;
        MicroOp m;
        m.aux = op.aux;
        m.expect = op.expect;
        m.snapshotIdx = op.snapshotIdx;
        m.pcOff = offsets[i] * 4;
        m.pcOff2 = m.pcOff; // guards: deopt annot lands at own pc + 8
        m.nodeId = node_ids[i];
        m.origIdx = uint32_t(i);
        m.guardIdx = uint32_t(i);
        m.res = op.result;
        decodeArgs(op, m);

        MOp fused = MOp::Unimpl;
        if (fuse && i + 1 < trace.ops.size())
            fused = fusedMOp(op, trace.ops[i + 1]);
        if (fused != MOp::Unimpl) {
            const ResOp &g = trace.ops[i + 1];
            m.opcode = uint16_t(fused);
            m.aux2 = g.aux;
            m.expect = g.expect;
            m.snapshotIdx = g.snapshotIdx;
            m.pcOff2 = offsets[i + 1] * 4;
            m.nodeId2 = node_ids[i + 1];
            m.guardIdx = uint32_t(i + 1);
            ++prog.fusedPairs;
            prog.guards.push_back(
                {uint32_t(i + 1), g.op, lastMergePc, true, m.opcode});
            prog.ops.push_back(m);
            ++i; // the guard is consumed
            continue;
        }

        m.opcode = uint16_t(directMOp(op.op));
        if (isGuard(op.op))
            prog.guards.push_back(
                {uint32_t(i), op.op, lastMergePc, false, m.opcode});
        switch (op.op) {
          case IrOp::Jump:
            decodeSnapshotArgs(op, m);
            break;
          case IrOp::CallAssembler:
            decodeSnapshotArgs(op, m);
            m.callInsts = uint8_t(loweredInstCount(op.op));
            break;
          case IrOp::Call:
          case IrOp::CallPure:
          case IrOp::CallMayForce:
            m.callInsts = uint8_t(loweredInstCount(op.op));
            break;
          default:
            break;
        }
        if (m.opcode == uint16_t(MOp::Unimpl))
            m.aux2 = uint32_t(op.op); // for the panic message
        prog.ops.push_back(m);
    }

    // Sentinel: a well-formed trace ends in Jump/Finish and never falls
    // through, but a corrupt program should trap loudly, not run wild.
    MicroOp trap;
    trap.opcode = uint16_t(MOp::TrapEnd);
    prog.ops.push_back(trap);
    return prog;
}

} // namespace jit
} // namespace xlvm
