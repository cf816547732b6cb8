#include "jit/recorder.h"

#include "jit/eval.h"

namespace xlvm {
namespace jit {

namespace {

/** Default result type for an op, kNoResult encoded as -1 via hasResult. */
bool
opHasResult(IrOp op)
{
    switch (op) {
      case IrOp::Label:
      case IrOp::Jump:
      case IrOp::Finish:
      case IrOp::DebugMergePoint:
      case IrOp::SetfieldGc:
      case IrOp::SetarrayitemGc:
        return false;
      default:
        return !isGuard(op);
    }
}

BoxType
defaultResultType(IrOp op)
{
    switch (irCategory(op)) {
      case IrCategory::Float:
        return op == IrOp::FloatLt || op == IrOp::FloatLe ||
                       op == IrOp::FloatEq || op == IrOp::FloatNe ||
                       op == IrOp::FloatGt || op == IrOp::FloatGe ||
                       op == IrOp::CastFloatToInt
                   ? BoxType::Int
                   : BoxType::Float;
      case IrCategory::New:
        return BoxType::Ref;
      case IrCategory::Ptr:
        return op == IrOp::SameAs ? BoxType::Ref : BoxType::Int;
      case IrCategory::MemOp:
      case IrCategory::CallOverhead:
        return BoxType::Ref; // callers override via emitTyped
      default:
        return BoxType::Int;
    }
}

} // namespace

Recorder::Recorder(void *anchor_code, uint32_t anchor_pc, bool is_bridge,
                   const RecorderLimits &lims)
    : limits(lims)
{
    trace_.anchorCode = anchor_code;
    trace_.anchorPc = anchor_pc;
    trace_.isBridge = is_bridge;
    ResOp label;
    label.op = IrOp::Label;
    trace_.ops.push_back(label);
}

int32_t
Recorder::addInputRef(void *obj)
{
    int32_t box = trace_.newBox(BoxType::Ref);
    trace_.numInputs = uint32_t(trace_.boxTypes.size());
    if (obj) {
        auto it = refMap.find(obj);
        if (it != refMap.end()) {
            // Two input slots hold the same object right now. Identity
            // tracking must not conflate the slots (they can diverge on
            // later entries), so keep the first mapping and pin the
            // observed aliasing with a ptr_eq guard at the first merge
            // point.
            pendingAliases.emplace_back(it->second, box);
        } else {
            refMap[obj] = box;
        }
    }
    return box;
}

int32_t
Recorder::refEncoding(void *obj)
{
    auto it = refMap.find(obj);
    if (it != refMap.end())
        return it->second;
    return constRef(obj);
}

int32_t
Recorder::emitTyped(IrOp op, BoxType result_type, int32_t a, int32_t b,
                    int32_t c, uint32_t aux, int32_t d, uint64_t expect)
{
    // Record-time constant folding for pure ops on constants.
    if (isPure(op) && a != kNoArg && isConstRef(a) &&
        (b == kNoArg || isConstRef(b)) && c == kNoArg &&
        op != IrOp::CallPure && op != IrOp::Strgetitem &&
        op != IrOp::Strlen) {
        RtVal out;
        RtVal bv = b == kNoArg ? RtVal() : trace_.constAt(b);
        if (evalPure(op, trace_.constAt(a), bv, &out))
            return trace_.addConst(out);
    }

    ResOp r;
    r.op = op;
    r.args[0] = a;
    r.args[1] = b;
    r.args[2] = c;
    r.args[3] = d;
    r.aux = aux;
    r.expect = expect;
    if (opHasResult(op))
        r.result = trace_.newBox(result_type);
    trace_.ops.push_back(r);
    if (op == IrOp::NewWithVtable)
        knownClasses[r.result] = aux;
    return r.result >= 0 ? r.result : kNoArg;
}

int32_t
Recorder::emit(IrOp op, int32_t a, int32_t b, int32_t c, uint32_t aux)
{
    return emitTyped(op, defaultResultType(op), a, b, c, aux);
}

int32_t
Recorder::currentSnapshotIdx()
{
    if (cachedSnapshotIdx < 0) {
        XLVM_ASSERT(snapshotFn, "guard recorded before first merge point");
        trace_.snapshots.push_back(snapshotFn());
        cachedSnapshotIdx = int32_t(trace_.snapshots.size() - 1);
    }
    return cachedSnapshotIdx;
}

void
Recorder::recordGuard(IrOp op, int32_t a, uint32_t aux, uint64_t expect)
{
    ResOp r;
    r.op = op;
    r.args[0] = a;
    r.aux = aux;
    r.expect = expect;
    r.snapshotIdx = currentSnapshotIdx();
    trace_.ops.push_back(r);
}

void
Recorder::guardClass(int32_t ref, uint32_t type_id)
{
    if (isConstRef(ref))
        return; // a constant's class never changes
    auto it = knownClasses.find(ref);
    if (it != knownClasses.end() && it->second == type_id)
        return;
    recordGuard(IrOp::GuardClass, ref, type_id, 0);
    knownClasses[ref] = type_id;
    knownNonnull[ref] = true;
}

void
Recorder::guardTrue(int32_t ref)
{
    if (isConstRef(ref))
        return;
    recordGuard(IrOp::GuardTrue, ref, 0, 0);
}

void
Recorder::guardFalse(int32_t ref)
{
    if (isConstRef(ref))
        return;
    recordGuard(IrOp::GuardFalse, ref, 0, 0);
}

void
Recorder::guardNonnull(int32_t ref)
{
    if (isConstRef(ref))
        return;
    auto it = knownNonnull.find(ref);
    if (it != knownNonnull.end() && it->second)
        return;
    recordGuard(IrOp::GuardNonnull, ref, 0, 0);
    knownNonnull[ref] = true;
}

void
Recorder::guardIsnull(int32_t ref)
{
    if (isConstRef(ref))
        return;
    recordGuard(IrOp::GuardIsnull, ref, 0, 0);
}

void
Recorder::guardNoOverflow()
{
    recordGuard(IrOp::GuardNoOverflow, kNoArg, 0, 0);
}

void
Recorder::guardValueInt(int32_t ref, int64_t expected)
{
    if (isConstRef(ref))
        return;
    recordGuard(IrOp::GuardValue, ref, 0, uint64_t(expected));
}

void
Recorder::guardValueRef(int32_t ref, void *expected)
{
    if (isConstRef(ref))
        return;
    // Pin the expected object in the const table so trace-root
    // enumeration keeps it alive for the lifetime of the trace.
    constRef(expected);
    recordGuard(IrOp::GuardValue, ref, 1,
                reinterpret_cast<uint64_t>(expected));
    // After a guard_value the box is as good as a constant; remember
    // its class knowledge implicitly via the mapping below.
    knownNonnull[ref] = expected != nullptr;
}

void
Recorder::setKnownClass(int32_t box, uint32_t type_id)
{
    knownClasses[box] = type_id;
    knownNonnull[box] = true;
}

bool
Recorder::knownClassOf(int32_t ref, uint32_t *type_id) const
{
    auto it = knownClasses.find(ref);
    if (it == knownClasses.end())
        return false;
    *type_id = it->second;
    return true;
}

bool
Recorder::atMergePoint(uint32_t payload,
                       std::function<Snapshot()> snapshot_fn)
{
    if (trace_.ops.size() >= limits.maxOps)
        return false;
    snapshotFn = std::move(snapshot_fn);
    cachedSnapshotIdx = -1;
    emit(IrOp::DebugMergePoint, kNoArg, kNoArg, kNoArg, payload);
    if (!pendingAliases.empty()) {
        for (auto [a, b] : pendingAliases) {
            int32_t eq = emit(IrOp::PtrEq, a, b);
            guardTrue(eq);
        }
        pendingAliases.clear();
    }
    return true;
}

void
Recorder::closeLoop(const std::vector<int32_t> &jump_args)
{
    ResOp r;
    r.op = IrOp::Jump;
    // Jump args don't fit in args[3]; stash them in a snapshot-like
    // frame appended to the snapshot table.
    Snapshot s;
    FrameSnapshot fs;
    fs.stack = jump_args;
    s.frames.push_back(fs);
    trace_.snapshots.push_back(s);
    r.snapshotIdx = int32_t(trace_.snapshots.size() - 1);
    trace_.ops.push_back(r);
    closed_ = true;
}

void
Recorder::closeBridge(uint32_t target_trace,
                      const std::vector<int32_t> &jump_args)
{
    ResOp r;
    r.op = IrOp::Jump;
    r.aux = target_trace + 1; // 0 means self-loop
    Snapshot s;
    FrameSnapshot fs;
    fs.stack = jump_args;
    s.frames.push_back(fs);
    trace_.snapshots.push_back(s);
    r.snapshotIdx = int32_t(trace_.snapshots.size() - 1);
    trace_.ops.push_back(r);
    closed_ = true;
}

Trace
Recorder::take()
{
    XLVM_ASSERT(closed_, "taking an unclosed trace");
    return std::move(trace_);
}

} // namespace jit
} // namespace xlvm
