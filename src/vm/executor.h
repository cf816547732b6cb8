/**
 * @file
 * JIT-compiled trace execution.
 *
 * The executor plays the role of the generated machine code: it
 * dispatches threaded-code style over the micro-op program the backend
 * pre-lowered from the optimized IR (jit/lower.h), with an unboxed
 * register file whose tail holds the trace constants. Each handler emits
 * the op's lowered instruction expansion (exactly the Backend's Figure-9
 * templates, with live memory addresses and branch outcomes) while
 * performing the semantics directly on raw object fields — no dynamic
 * dispatch in the modeled code, which is precisely why the JIT phase has
 * the best IPC in Table IV.
 *
 * Guard failures bump per-guard counters, either transfer to an attached
 * bridge trace or deoptimize through the blackhole. Loop back-edges are
 * GC safepoints (the register file is a root provider). call_assembler
 * ops run nested traces and validate the expected exit state.
 */

#ifndef XLVM_VM_EXECUTOR_H
#define XLVM_VM_EXECUTOR_H

#include <vector>

#include "common/histogram.h"
#include "jit/backend.h"
#include "obj/space.h"
#include "vm/blackhole.h"
#include "vm/registry.h"

namespace xlvm {
namespace vm {

class TraceExecutor : public gc::RootProvider
{
  public:
    TraceExecutor(obj::ObjSpace &space, TraceRegistry &registry,
                  jit::Backend &backend, const JitParams &params);
    ~TraceExecutor() override;

    /**
     * Execute @p trace with the given input values until a guard fails
     * without a bridge (or an unexpected call_assembler exit). Returns
     * the reconstructed interpreter state.
     */
    DeoptResult run(jit::Trace &trace, std::vector<jit::RtVal> inputs);

    /**
     * Ids of guards that just crossed the bridge threshold; the dispatch
     * glue consumes these to start bridge tracing. Pair of (trace id,
     * guard op index).
     */
    std::vector<std::pair<uint32_t, uint32_t>> hotGuards;

    /**
     * Ids of tier-1 traces whose execution count crossed tier2Threshold
     * (checked on backward transfers, Multi mode only); the dispatch
     * glue drains these between trace runs and re-optimizes each trace,
     * swapping its program in place.
     */
    std::vector<uint32_t> pendingPromotions;

    void forEachRoot(gc::GcVisitor &v) override;

    uint64_t deoptCount() const { return nDeopts; }
    uint64_t iterationCount() const { return nIterations; }

    /**
     * Modeled cycles spent executing traces of @p tier (1 or 2).
     * Sampled at trace-transfer granularity: every entry, cross-trace
     * or bridge transfer, and exit flushes the running interval to the
     * tier executing since the previous sample, so mixed-tier runs
     * split correctly. Trace-exit annotations land between samples and
     * are not attributed — the split is exact at loop granularity.
     */
    uint64_t tierCyclesFp(uint8_t tier) const
    {
        return tier < 3 ? tierCycles[tier] : 0;
    }

    /**
     * Distribution of per-iteration modeled-cycle latency, recorded at
     * every loop back-edge (whole cycles, back-edge to back-edge).
     * Deterministic, so its percentiles live in the golden-gated
     * metrics.
     */
    const common::Histogram &iterationLatency() const { return iterHist_; }

    /** Distribution of whole trace-execution lengths (entry to exit,
     *  modeled cycles), one record per TraceExecutor::run. */
    const common::Histogram &executionLength() const { return execHist_; }

  private:
    struct Level
    {
        jit::Trace *trace;
        std::vector<jit::RtVal> *regs;
    };

    /** Perform one recorded AOT call (the recorded ABI). Operands come
     *  pre-decoded as direct register-file indices in the micro-op. */
    jit::RtVal performCall(const jit::MicroOp &m, jit::RtVal *regs);

    obj::ObjSpace &space;
    TraceRegistry &registry;
    jit::Backend &backend;
    JitParams params;
    std::vector<Level> active; ///< for GC root enumeration
    uint64_t nDeopts = 0;
    uint64_t nIterations = 0;
    /** Nested call_assembler depth (bounded; see executor.cc). */
    int runDepth = 0;
    /** Per-tier cycle attribution ([0] = idle, unused in reports). */
    uint64_t tierCycles[3] = {0, 0, 0};
    common::Histogram iterHist_;
    common::Histogram execHist_;
    uint64_t tierSampleFp = 0;
    uint8_t curTier = 0; ///< 0 = not executing a trace
};

/** RAII: enter "JIT code" mode (clears recorder, sets phase flags). */
class JitCodeScope
{
  public:
    explicit JitCodeScope(obj::ExecEnv &env)
        : env_(env), savedRec(env.recorder()), savedInJit(env.inJitCode())
    {
        env_.setRecorder(nullptr);
        env_.setInJitCode(true);
    }

    ~JitCodeScope()
    {
        env_.setRecorder(savedRec);
        env_.setInJitCode(savedInJit);
    }

  private:
    obj::ExecEnv &env_;
    jit::Recorder *savedRec;
    bool savedInJit;
};

} // namespace vm
} // namespace xlvm

#endif // XLVM_VM_EXECUTOR_H
