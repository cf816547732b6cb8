#include "jit/backend.h"

namespace xlvm {
namespace jit {

uint32_t
loweredInstCount(IrOp op)
{
    switch (op) {
      case IrOp::Label:
        return 0;
      case IrOp::Jump:
        return 1;
      case IrOp::Finish:
        return 2;
      case IrOp::DebugMergePoint:
        return 0; // pure annotation

      case IrOp::GuardTrue:
      case IrOp::GuardFalse:
      case IrOp::GuardValue:
      case IrOp::GuardNonnull:
      case IrOp::GuardIsnull:
        return 2;
      case IrOp::GuardClass:
        return 3; // load type word, cmp, branch
      case IrOp::GuardNoOverflow:
        return 1; // jo

      case IrOp::IntAdd:
      case IrOp::IntSub:
      case IrOp::IntMul:
      case IrOp::IntAnd:
      case IrOp::IntOr:
      case IrOp::IntXor:
      case IrOp::IntLshift:
      case IrOp::IntRshift:
      case IrOp::IntNeg:
      case IrOp::IntAddOvf:
      case IrOp::IntSubOvf:
      case IrOp::IntMulOvf:
        return 1;
      case IrOp::IntFloordiv:
      case IrOp::IntMod:
        return 4; // idiv + floor fixups
      case IrOp::IntLt:
      case IrOp::IntLe:
      case IrOp::IntEq:
      case IrOp::IntNe:
      case IrOp::IntGt:
      case IrOp::IntGe:
      case IrOp::IntIsZero:
      case IrOp::IntIsTrue:
        return 2; // cmp + setcc

      case IrOp::FloatAdd:
      case IrOp::FloatSub:
      case IrOp::FloatMul:
      case IrOp::FloatTruediv:
      case IrOp::FloatNeg:
      case IrOp::FloatAbs:
      case IrOp::CastIntToFloat:
      case IrOp::CastFloatToInt:
        return 1;
      case IrOp::FloatLt:
      case IrOp::FloatLe:
      case IrOp::FloatEq:
      case IrOp::FloatNe:
      case IrOp::FloatGt:
      case IrOp::FloatGe:
        return 2;

      case IrOp::GetfieldGc:
        return 1;
      case IrOp::SetfieldGc:
        return 3; // store + write-barrier check
      case IrOp::GetarrayitemGc:
        return 2;
      case IrOp::SetarrayitemGc:
        return 3;
      case IrOp::ArraylenGc:
        return 1;

      case IrOp::Strgetitem:
        return 2;
      case IrOp::Strlen:
        return 1;

      case IrOp::NewWithVtable:
        return 8; // nursery bump, limit check, header init
      case IrOp::NewArray:
        return 10;

      case IrOp::PtrEq:
      case IrOp::PtrNe:
        return 2;
      case IrOp::SameAs:
        return 1;

      case IrOp::Call:
      case IrOp::CallPure:
        return 16; // arg shuffle, spills, call, restore
      case IrOp::CallMayForce:
        return 20;
      case IrOp::CallAssembler:
        return 34; // full frame handoff between assembler units

      default:
        return 1;
    }
}

void
Backend::compile(Trace &trace)
{
    compileAtTier(trace, 2);
}

void
Backend::compileBaseline(Trace &trace)
{
    compileAtTier(trace, 1);
}

void
Backend::promote(Trace &trace, Trace &&optimized)
{
    // Move the re-optimized IR content into the registered trace object
    // so its identity (id, anchor, hotness, registry/bridge references)
    // survives the swap; the recompile below re-derives every backend
    // artifact (codePc, offsets, program, guardStates) from scratch.
    XLVM_ASSERT(trace.tier == 1, "promoting a non-baseline trace");
    uint64_t oldBytes = (uint64_t(trace.codeInsts + 8) * 4 + 15) & ~15ull;
    tiers.tier1CodeBytes -= oldBytes;
    tiers.tier1RetiredBytes += oldBytes;

    trace.ops = std::move(optimized.ops);
    trace.consts = std::move(optimized.consts);
    trace.boxTypes = std::move(optimized.boxTypes);
    trace.snapshots = std::move(optimized.snapshots);
    trace.numInputs = optimized.numInputs;
    trace.virtuals = std::move(optimized.virtuals);
    trace.boxToVirtual = std::move(optimized.boxToVirtual);
    trace.promotionRequested = false;

    compileAtTier(trace, 2);
    ++tiers.promotions;
}

void
Backend::addCompileCost(uint8_t tier, uint64_t insts)
{
    if (tier == 1)
        tiers.tier1CompileInsts += insts;
    else
        tiers.tier2CompileInsts += insts;
}

void
Backend::compileAtTier(Trace &trace, uint8_t tier)
{
    std::vector<uint32_t> offs;
    std::vector<int32_t> ids;
    offs.reserve(trace.ops.size());
    ids.reserve(trace.ops.size());

    uint32_t cursor = 0;
    trace.irNodeBase = uint32_t(nodes.size());
    for (const ResOp &op : trace.ops) {
        offs.push_back(cursor);
        cursor += loweredInstCount(op.op);
        if (op.op != IrOp::DebugMergePoint && op.op != IrOp::Label) {
            ids.push_back(int32_t(nodes.size()));
            IrNodeMeta m;
            m.op = op.op;
            m.traceId = trace.id;
            nodes.push_back(m);
        } else {
            ids.push_back(-1);
        }
    }

    trace.codeInsts = cursor;
    trace.codePc =
        codeSpace.alloc(sim::CodeSegment::JitArena, cursor + 8);
    trace.guardStates.assign(trace.ops.size(), GuardState());
    if (trace.boxToVirtual.empty())
        trace.boxToVirtual.assign(trace.boxTypes.size(), -1);

    trace.tier = tier;
    uint64_t bytes = (uint64_t(cursor + 8) * 4 + 15) & ~15ull;
    if (tier == 1) {
        ++tiers.tier1Compiles;
        tiers.tier1CodeBytes += bytes;
    } else {
        ++tiers.tier2Compiles;
        tiers.tier2CodeBytes += bytes;
    }

    if (offsets.size() <= trace.id) {
        offsets.resize(trace.id + 1);
        nodeIds.resize(trace.id + 1);
        programs.resize(trace.id + 1);
    }
    programs[trace.id] =
        lowerTrace(trace, offs, ids, fuseMicroOps);
    offsets[trace.id] = std::move(offs);
    nodeIds[trace.id] = std::move(ids);
}

MicroProgram &
Backend::program(uint32_t trace_id)
{
    XLVM_ASSERT(trace_id < programs.size(), "trace not compiled");
    return programs[trace_id];
}

const std::vector<int32_t> &
Backend::opNodeIds(uint32_t trace_id) const
{
    XLVM_ASSERT(trace_id < nodeIds.size(), "trace not compiled");
    return nodeIds[trace_id];
}

const std::vector<uint32_t> &
Backend::opOffsets(uint32_t trace_id) const
{
    XLVM_ASSERT(trace_id < offsets.size(), "trace not compiled");
    return offsets[trace_id];
}

} // namespace jit
} // namespace xlvm
