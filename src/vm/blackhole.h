/**
 * @file
 * The blackhole interpreter: deoptimization.
 *
 * When a guard fails, the blackhole reconstructs the precise interpreter
 * state (all frames, locals, operand stacks) from the guard's resume
 * snapshot and the trace's live register values, rematerializing virtual
 * objects that escape analysis removed. Its execution time is charged to
 * the Blackhole phase — the paper shows this phase can exceed 10% of
 * total time and has the worst IPC of all phases (Table IV).
 */

#ifndef XLVM_VM_BLACKHOLE_H
#define XLVM_VM_BLACKHOLE_H

#include <vector>

#include "jit/ir.h"
#include "obj/space.h"

namespace xlvm {
namespace vm {

/** Reconstructed state of one interpreter frame. */
struct FrameState
{
    void *code = nullptr;
    uint32_t pc = 0;
    std::vector<obj::W_Object *> locals;
    std::vector<obj::W_Object *> stack;
};

/** Result of leaving JIT-compiled code. */
struct DeoptResult
{
    std::vector<FrameState> frames; ///< outermost first
    uint32_t traceId = 0;
    uint32_t guardOpIdx = 0;
};

/**
 * Materialize the interpreter state for @p snapshot of @p trace given the
 * current register values. Emits blackhole-phase cost and annotations.
 */
DeoptResult blackholeMaterialize(obj::ObjSpace &space,
                                 const jit::Trace &trace,
                                 const jit::Snapshot &snapshot,
                                 const std::vector<jit::RtVal> &regs,
                                 uint32_t guard_op_idx);

/**
 * State reconstruction without blackhole cost accounting. call_assembler
 * rebuilds the outer frames of an unexpected inner exit with it; the
 * guard→bridge transfer uses its allocation-free twin materializeInputs
 * (the forced allocations live in the bridge's own code, so the cost
 * stays in the JIT phase).
 */
DeoptResult materializeState(obj::ObjSpace &space, const jit::Trace &trace,
                             const jit::Snapshot &snapshot,
                             const std::vector<jit::RtVal> &regs);

/** Host buffers a guard→bridge transfer reuses from one to the next. */
struct TransferBuffers
{
    /** The bridge's inputs: every snapshot slot, as a ref. */
    std::vector<jit::RtVal> inputs;
    /** Virtual index -> its materialized object (materialization memo). */
    std::vector<obj::W_Object *> memo;
};

/**
 * Guard→bridge transfer: resolve @p snapshot's slots straight into
 * @p buf.inputs in the bridge input order (frames outer to inner, locals
 * then stack), without blackhole cost. Slot for slot and allocation for
 * allocation it equals reading materializeState's frames in that order,
 * but builds no DeoptResult and, once @p buf has grown, allocates no
 * host memory.
 */
void materializeInputs(obj::ObjSpace &space, const jit::Trace &trace,
                       const jit::Snapshot &snapshot,
                       const std::vector<jit::RtVal> &regs,
                       TransferBuffers &buf);

/**
 * Every type id allocByTypeId can build. The recorder may emit
 * new_with_vtable only for these: a tier-1 trace executes the
 * allocation through allocByTypeId, and deopt rebuilds a virtual the
 * same way, then sets each recorded field with rtSetField.
 */
inline constexpr uint32_t kRebuildableTypes[] = {
    obj::kTypeInt,         obj::kTypeFloat,     obj::kTypeBool,
    obj::kTypeCell,        obj::kTypeRange,     obj::kTypeListIter,
    obj::kTypeRangeIter,   obj::kTypeTupleIter, obj::kTypeStrIter,
    obj::kTypeBoundMethod, obj::kTypeInstance,  obj::kTypePair,
};

/**
 * Default-construct a W_ object of @p type_id (one of
 * kRebuildableTypes) for a new_with_vtable or a virtual rebuild.
 */
obj::W_Object *allocByTypeId(obj::ObjSpace &space, uint32_t type_id);

} // namespace vm
} // namespace xlvm

#endif // XLVM_VM_BLACKHOLE_H
