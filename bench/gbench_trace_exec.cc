/**
 * @file
 * Host-side microbenchmarks for the trace execution engine: wall-clock
 * throughput of TraceExecutor::run over hand-built hot traces (the same
 * canonical loops the vm-layer unit tests use). This is the benchmark
 * the threaded-code/micro-op engine's speedup target is measured on.
 *
 * The fusion on/off variants toggle superinstruction fusion through the
 * XLVM_NO_FUSE environment escape hatch (checked at Backend::compile
 * time), so the source also builds against engines that predate the
 * in-config toggle — which is exactly what the before/after comparison
 * needs.
 *
 * The BM_SimStep_* group isolates the simulation layer: the same hot
 * trace body is stepped through a bare sim::Core with no executor
 * dispatch in the loop, once plain and once with the cycle sampler
 * armed. xlvm-bench-guard's --max-sampler-overhead compares the two.
 * Every variant exports modeled_cpi, a deterministic modeled-cost
 * counter (cycles per simulated instruction); xlvm-bench-guard pins it
 * equal across variants, so a sampler that perturbs the model fails
 * the gate even if it is cheap.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <vector>

#include "jit/opt.h"
#include "jit/recorder.h"
#include "sim/emitter.h"
#include "vm/context.h"
#include "xlayer/sampler.h"

namespace {

using namespace xlvm;

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

jit::Trace *
registerTrace(vm::VmContext &ctx, jit::Recorder &rec)
{
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

/**
 * "while i < limit: i += 1" over boxed ints — the canonical meta-trace
 * (guard_class, getfield, int_lt+guard_true, int_add_ovf+guard_no_
 * overflow, virtualized re-box, jump). The hot int-arithmetic loop.
 */
jit::Trace *
buildCountingLoop(vm::VmContext &ctx, void *code, int64_t limit)
{
    jit::Recorder rec(code, 7, false);
    rec.setAnchorLocals(1);
    obj::W_Int *seed = ctx.space.newInt(0);
    int32_t in0 = rec.addInputRef(seed);
    rec.atMergePoint(0, [&] { return frameSnap(code, 7, {in0}); });
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
    return registerTrace(ctx, rec);
}

/**
 * A branchy, guard-heavy loop body: five guards per iteration (four of
 * them fusible compare→guard / ovf→guard pairs), plus masking
 * arithmetic between them. Models the polymorphic-dispatch-style traces
 * where dispatch overhead, not arithmetic, dominates.
 */
jit::Trace *
buildBranchyLoop(vm::VmContext &ctx, void *code, int64_t limit)
{
    jit::Recorder rec(code, 11, false);
    rec.setAnchorLocals(1);
    obj::W_Int *seed = ctx.space.newInt(0);
    int32_t in0 = rec.addInputRef(seed);
    rec.atMergePoint(0, [&] { return frameSnap(code, 11, {in0}); });
    rec.guardClass(in0, obj::kTypeInt);
    int32_t v = rec.emitTyped(IrOp::GetfieldGc, BoxType::Int, in0,
                              kNoArg, kNoArg, obj::kFieldValue);
    int32_t cmp = rec.emit(IrOp::IntLt, v, rec.constInt(limit));
    rec.guardTrue(cmp);
    int32_t low = rec.emit(IrOp::IntAnd, v, rec.constInt(0xff));
    int32_t nonneg = rec.emit(IrOp::IntGe, low, rec.constInt(0));
    rec.guardTrue(nonneg);
    int32_t sentinel = rec.emit(IrOp::IntEq, v, rec.constInt(-1));
    rec.guardFalse(sentinel);
    int32_t mix = rec.emit(IrOp::IntXor, low, rec.constInt(0x55));
    int32_t bounded = rec.emit(IrOp::IntLe, mix, rec.constInt(0xff));
    rec.guardTrue(bounded);
    int32_t next = rec.emit(IrOp::IntAddOvf, v, rec.constInt(1));
    rec.guardNoOverflow();
    int32_t box = rec.emit(IrOp::NewWithVtable, kNoArg, kNoArg, kNoArg,
                           obj::kTypeInt);
    rec.emit(IrOp::SetfieldGc, box, next, kNoArg, obj::kFieldValue);
    rec.closeLoop({box});
    return registerTrace(ctx, rec);
}

constexpr int64_t kIters = 4096; ///< loop iterations per executor entry

/** RAII toggle for the XLVM_NO_FUSE escape hatch. */
struct ScopedNoFuse
{
    explicit ScopedNoFuse(bool disable)
    {
        if (disable)
            setenv("XLVM_NO_FUSE", "1", 1);
        else
            unsetenv("XLVM_NO_FUSE");
    }
    ~ScopedNoFuse() { unsetenv("XLVM_NO_FUSE"); }
};

/** Modeled cycles per simulated instruction — deterministic for a given
 *  workload, so the bench guard pins it across variants. */
double
modeledCpi(const sim::Core &core)
{
    sim::PerfCounters pc = core.totalCounters();
    if (pc.instructions == 0)
        return 0.0;
    return double(pc.cyclesFp) /
           (double(sim::kCycleFp) * double(pc.instructions));
}

void
runTraceExecBench(benchmark::State &state,
                  jit::Trace *(*build)(vm::VmContext &, void *, int64_t),
                  bool noFuse)
{
    ScopedNoFuse guard(noFuse);
    vm::VmContext ctx;
    int code;
    jit::Trace *t = build(ctx, &code, kIters);
    for (auto _ : state) {
        obj::W_Int *start = ctx.space.newInt(0);
        vm::DeoptResult res =
            ctx.executor.run(*t, {RtVal::fromRef(start)});
        benchmark::DoNotOptimize(res.frames.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * kIters);
    state.counters["deopts"] =
        benchmark::Counter(double(ctx.executor.deoptCount()));
    state.counters["modeled_cpi"] = benchmark::Counter(modeledCpi(ctx.core));
}

void
BM_TraceExec_HotLoop(benchmark::State &state)
{
    runTraceExecBench(state, buildCountingLoop, false);
}
BENCHMARK(BM_TraceExec_HotLoop);

void
BM_TraceExec_HotLoop_NoFuse(benchmark::State &state)
{
    runTraceExecBench(state, buildCountingLoop, true);
}
BENCHMARK(BM_TraceExec_HotLoop_NoFuse);

void
BM_TraceExec_Branchy(benchmark::State &state)
{
    runTraceExecBench(state, buildBranchyLoop, false);
}
BENCHMARK(BM_TraceExec_Branchy);

void
BM_TraceExec_Branchy_NoFuse(benchmark::State &state)
{
    runTraceExecBench(state, buildBranchyLoop, true);
}
BENCHMARK(BM_TraceExec_Branchy_NoFuse);

// ---- sim-layer stepping microbenchmarks -------------------------------

/**
 * A hot trace body for the bare core, parameterized by shape: @p units
 * repetitions of {alu(aluRun), load every loadEvery-th unit, taken
 * branch}. The load density controls how much of the body is address
 * translation plus d-cache access versus straight-line ALU runs —
 * optimized numeric meta-traces land near the sparse end after
 * allocation removal.
 */
struct SimBodyShape
{
    int units;
    int aluRun;
    int loadEvery; ///< a unit emits a load when u % loadEvery == 0

    int
    instsPerIter() const
    {
        int loads = (units + loadEvery - 1) / loadEvery;
        return units * (aluRun + 1) + loads;
    }
};

constexpr uint64_t kSimPc = 0x400000;

void
emitSimBody(sim::Core &c, const SimBodyShape &shape, const void *p1,
            const void *p2)
{
    sim::BlockEmitter e(c, kSimPc);
    for (int u = 0; u < shape.units; ++u) {
        e.alu(uint32_t(shape.aluRun));
        if (u % shape.loadEvery == 0)
            e.loadPtr((u & 1) ? p2 : p1);
        e.branch(true);
    }
}

SimBodyShape
shapeFromState(const benchmark::State &state)
{
    SimBodyShape s;
    s.units = int(state.range(0));
    s.aluRun = int(state.range(1));
    s.loadEvery = int(state.range(2));
    return s;
}

// {units, aluRun, loadEvery}: a short mixed loop body; a typical
// optimized meta-trace; a long mixed trace; and a long compute-dense
// trace (sparse loads after allocation removal).
#define SIM_STEP_SHAPES                                                  \
    ->Args({16, 4, 1})->Args({128, 4, 1})->Args({256, 4, 1})             \
    ->Args({256, 16, 4})

/** The cheapest possible sample consumer — isolates the core-side cost
 *  of an armed sampler (the countdown on every charge plus the sample
 *  deliveries) from any profile-building work on top. */
struct CountingSampleSink final : sim::CycleSampleSink
{
    uint64_t samples = 0;

    void
    onCycleSample(uint64_t, uint32_t, uint64_t, uint64_t) override
    {
        ++samples;
    }
};

/** Plain stepping of the body. An optional armed @p sink measures
 *  sampler overhead on the same body (xlvm-bench-guard's
 *  --max-sampler-overhead compares the Prof variant's cpu_time against
 *  the Plain one). */
void
runSimStepBench(benchmark::State &state, CountingSampleSink *sink = nullptr)
{
    const SimBodyShape shape = shapeFromState(state);
    sim::Core core;
    if (sink) {
        core.armSampler(sink, xlayer::kDefaultSampleIntervalCycles *
                                  sim::kCycleFp);
    }
    int obj1 = 0, obj2 = 0;
    for (auto _ : state)
        emitSimBody(core, shape, &obj1, &obj2);
    if (sink)
        core.armSampler(nullptr, 0);
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            shape.instsPerIter());
    state.counters["modeled_cpi"] = benchmark::Counter(modeledCpi(core));
    if (sink)
        state.counters["samples"] = benchmark::Counter(double(sink->samples));
}

void
BM_SimStep_Plain(benchmark::State &state)
{
    runSimStepBench(state);
}
BENCHMARK(BM_SimStep_Plain) SIM_STEP_SHAPES;

/** The same stepping with the deterministic cycle sampler armed at the
 *  default interval, delivering into a counting sink. */
void
BM_SimStep_Prof(benchmark::State &state)
{
    CountingSampleSink sink;
    runSimStepBench(state, &sink);
}
BENCHMARK(BM_SimStep_Prof) SIM_STEP_SHAPES;

} // namespace

BENCHMARK_MAIN();
