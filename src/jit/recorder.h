/**
 * @file
 * The meta-interpreter's trace recorder.
 *
 * While tracing, the interpreter executes normally but every operation it
 * performs through the object space is also recorded here as IR, exactly
 * as RPython's meta-interpreter records the interpreter's RPython-level
 * operations. The recorder:
 *
 *  - maps runtime object identities to SSA boxes (trace inputs, New
 *    results, call results, promoted constants);
 *  - folds operations on constants at record time;
 *  - elides guards already implied by earlier guards in the trace
 *    (known-class / known-nonnull caches);
 *  - attaches resume snapshots (captured lazily, once per dispatched
 *    bytecode) to every guard for later deoptimization.
 */

#ifndef XLVM_JIT_RECORDER_H
#define XLVM_JIT_RECORDER_H

#include <functional>
#include <unordered_map>

#include "jit/ir.h"

namespace xlvm {
namespace jit {

struct RecorderLimits
{
    uint32_t maxOps = 6000;
};

class Recorder
{
  public:
    Recorder(void *anchor_code, uint32_t anchor_pc, bool is_bridge,
             const RecorderLimits &limits = RecorderLimits());

    // ---- input setup -----------------------------------------------

    /** Add one trace input holding an object reference. */
    int32_t addInputRef(void *obj);

    /** Record how many anchor-frame slots are locals (rest: stack). */
    void setAnchorLocals(uint32_t n) { trace_.anchorNumLocals = n; }

    // ---- value references ------------------------------------------

    bool knownRef(void *obj) const { return refMap.count(obj) != 0; }

    /**
     * Encoding for an object reference: its box if tracked, otherwise a
     * constant (legitimate only for process-lifetime constants — code
     * objects, interned values, promoted globals).
     */
    int32_t refEncoding(void *obj);

    int32_t constInt(int64_t v) { return trace_.addConst(RtVal::fromInt(v)); }
    int32_t constFloat(double v)
    {
        return trace_.addConst(RtVal::fromFloat(v));
    }
    int32_t constRef(void *p) { return trace_.addConst(RtVal::fromRef(p)); }

    /** Associate an object's identity with a box (New / call results). */
    void mapRef(void *obj, int32_t box) { refMap[obj] = box; }

    /** Forget an identity mapping (object mutated to a new variant). */
    void unmapRef(void *obj) { refMap.erase(obj); }

    // ---- op recording ----------------------------------------------

    /**
     * Record an operation, folding constants for pure ops. Returns the
     * operand encoding of the result (box or const), or kNoArg if the op
     * has no result.
     */
    int32_t emit(IrOp op, int32_t a = kNoArg, int32_t b = kNoArg,
                 int32_t c = kNoArg, uint32_t aux = 0);

    /** Result box type override (defaults derived from the op). */
    int32_t emitTyped(IrOp op, BoxType result_type, int32_t a = kNoArg,
                      int32_t b = kNoArg, int32_t c = kNoArg,
                      uint32_t aux = 0, int32_t d = kNoArg,
                      uint64_t expect = 0);

    // ---- guards ----------------------------------------------------

    /** guard_class, elided when the box's class is already known. */
    void guardClass(int32_t ref, uint32_t type_id);

    void guardTrue(int32_t ref);
    void guardFalse(int32_t ref);
    void guardNonnull(int32_t ref);
    void guardIsnull(int32_t ref);
    void guardNoOverflow();
    /** guard_value pinning @p ref to the observed constant. */
    void guardValueInt(int32_t ref, int64_t expected);
    void guardValueRef(int32_t ref, void *expected);

    /** Class knowledge cache (also fed by New and guard elision). */
    void setKnownClass(int32_t box, uint32_t type_id);
    bool knownClassOf(int32_t ref, uint32_t *type_id) const;

    // ---- merge points & snapshots ----------------------------------

    /**
     * Called by the dispatch loop at the start of every bytecode while
     * tracing. @p payload is the dispatch-annotation payload (opcode);
     * @p snapshot_fn lazily captures the resume state for guards recorded
     * during this bytecode. Returns false when the trace has exceeded its
     * length budget (caller should abort).
     */
    bool atMergePoint(uint32_t payload,
                      std::function<Snapshot()> snapshot_fn);

    /** Close the trace as a loop jumping back to its own label. */
    void closeLoop(const std::vector<int32_t> &jump_args);

    /**
     * Close the trace as a bridge jumping into an existing loop trace.
     * @p target_trace id; @p jump_args map to the target's inputs.
     */
    void closeBridge(uint32_t target_trace,
                     const std::vector<int32_t> &jump_args);

    /** Fresh Ref box not produced by any op (call_assembler outputs). */
    int32_t newRefBox() { return trace_.newBox(BoxType::Ref); }

    /**
     * Record a call_assembler to an existing trace. @p io holds the
     * input argument encodings (frames[0].stack) and the expected exit
     * frame with output boxes (frames[1]); @p exit_pc is the bytecode pc
     * the inner trace is expected to deoptimize at.
     */
    void
    recordCallAssembler(uint32_t target_trace, Snapshot io,
                        uint64_t exit_pc)
    {
        trace_.snapshots.push_back(std::move(io));
        ResOp r;
        r.op = IrOp::CallAssembler;
        r.aux = target_trace;
        r.expect = exit_pc;
        r.snapshotIdx = int32_t(trace_.snapshots.size() - 1);
        trace_.ops.push_back(r);
    }

    // ---- lifecycle --------------------------------------------------

    bool closed() const { return closed_; }
    uint32_t numOps() const { return uint32_t(trace_.ops.size()); }
    Trace take();
    const Trace &trace() const { return trace_; }

    /**
     * Call @p cb(void *) on every object ref the recorder must keep
     * alive (GC roots). A template: the GC root path passes its visitor
     * lambda straight through, with no type-erased call per ref.
     */
    template <typename Fn>
    void
    forEachLiveRef(Fn &&cb) const
    {
        for (const auto &entry : refMap)
            cb(entry.first);
        for (const RtVal &v : trace_.consts) {
            if (v.kind == RtVal::Kind::Ref && v.r)
                cb(v.r);
        }
    }

    /** Runtime value the interpreter observed for a const ref. */
    const RtVal &constVal(int32_t ref) const { return trace_.constAt(ref); }

  private:
    int32_t currentSnapshotIdx();
    void recordGuard(IrOp op, int32_t a, uint32_t aux, uint64_t expect);

    Trace trace_;
    RecorderLimits limits;
    std::unordered_map<void *, int32_t> refMap;
    std::unordered_map<int32_t, uint32_t> knownClasses;
    std::unordered_map<int32_t, bool> knownNonnull;
    std::function<Snapshot()> snapshotFn;
    int32_t cachedSnapshotIdx = -1;
    /** Input slots observed aliased; guarded at the first merge point. */
    std::vector<std::pair<int32_t, int32_t>> pendingAliases;
    bool closed_ = false;
};

} // namespace jit
} // namespace xlvm

#endif // XLVM_JIT_RECORDER_H
