#include "driver/runner.h"

#include <stdexcept>

#include "common/logging.h"
#include "minipy/compiler.h"
#include "minipy/interp.h"
#include "minirkt/compiler.h"
#include "vm/context.h"
#include "workloads/workloads.h"

namespace xlvm {
namespace driver {

const char *
vmKindName(VmKind k)
{
    switch (k) {
      case VmKind::CPythonLike:
        return "CPython*";
      case VmKind::PyPyNoJit:
        return "PyPy*-nojit";
      case VmKind::PyPyJit:
        return "PyPy*";
      case VmKind::RacketLike:
        return "Racket*";
      case VmKind::PycketJit:
        return "Pycket*";
    }
    return "?";
}

namespace {

vm::VmConfig
configFor(const RunOptions &opts)
{
    vm::VmConfig cfg;
    switch (opts.vm) {
      case VmKind::CPythonLike:
        cfg.flavor = obj::VmFlavor::RefInterp;
        cfg.jit.enableJit = false;
        break;
      case VmKind::PyPyNoJit:
        cfg.flavor = obj::VmFlavor::RPython;
        cfg.jit.enableJit = false;
        break;
      case VmKind::RacketLike:
        // Custom method-JIT VM analog: compiled-code-quality dispatch,
        // no meta-tracing.
        cfg.flavor = obj::VmFlavor::RefInterp;
        cfg.jit.enableJit = false;
        break;
      case VmKind::PyPyJit:
      case VmKind::PycketJit:
        cfg.flavor = obj::VmFlavor::RPython;
        cfg.jit.enableJit = true;
        break;
    }
    cfg.jit.loopThreshold = opts.loopThreshold;
    cfg.jit.bridgeThreshold = opts.bridgeThreshold;
    cfg.jit.irNodeAnnotations = opts.irAnnotations;
    cfg.jit.fuseMicroOps = opts.jitFuseMicroOps;
    cfg.jit.optVirtualize = opts.optVirtualize;
    cfg.jit.optHeapCache = opts.optHeapCache;
    cfg.jit.optElideGuards = opts.optElideGuards;
    cfg.jit.optFoldConstants = opts.optFoldConstants;
    cfg.jit.tierMode = opts.tierMode;
    cfg.jit.tier1Threshold = opts.tier1Threshold;
    cfg.jit.tier2Threshold = opts.tier2Threshold;
    if (cfg.jit.tierMode == vm::TierMode::Off)
        cfg.jit.enableJit = false;
    cfg.jit.stormThreshold = opts.stormThreshold;
    cfg.jit.blacklistCooldown = opts.blacklistCooldown;
    cfg.jit.compileBudgetOps = opts.compileBudgetOps;
    cfg.jit.maxTraces = opts.maxTraces;
    cfg.inject = opts.inject;
    {
        // Validate here so a malformed spec is a clean per-run error
        // (RunResult::error via the invalid_argument path) instead of
        // the VmContext constructor's XLVM_FATAL.
        rt::FaultEngine probe;
        std::string err;
        if (!probe.configure(cfg.inject, &err))
            throw std::invalid_argument("bad --inject spec: " + err);
    }
    cfg.maxInstructions = opts.maxInstructions;
    cfg.phaseTimelineBin = opts.timelineBin;
    cfg.workSampleInstrs = opts.workSampleInstrs;
    cfg.tracer.capacityEvents = opts.traceBufferEvents;
    cfg.tracer.tagMask = opts.traceTagMask;
    cfg.tracer.runId = uint8_t(opts.traceRunId);
    cfg.sampler.intervalCycles = opts.profileIntervalCycles;
    return cfg;
}

void
collect(vm::VmContext &ctx, RunResult &out)
{
    xlayer::AnnotationBus &bus = ctx.bus;
    bus.work.finalize();

    sim::PerfCounters total = ctx.core.totalCounters();
    out.cycles = total.cycles();
    out.seconds = ctx.core.seconds();
    out.instructions = total.instructions;
    out.ipc = total.ipc();
    out.branchMpki = total.mpki();
    out.branchRate = total.branchRate();
    out.branchMissRate = total.branchMissRate();

    out.phaseShares = bus.phases.phaseCycleShares();
    for (uint32_t p = 0; p < xlayer::kNumPhases; ++p) {
        out.phaseCounters[p] =
            bus.phases.phaseCounters(xlayer::Phase(p));
    }
    out.timeline = bus.phases.timeline();

    out.work = bus.work.totalWork();
    out.warmupCurve = bus.work.samples();

    out.trace = bus.tracer.take();
    out.phaseUnderflows = bus.phases.phaseUnderflows();

    out.loopsCompiled = bus.count(xlayer::kLoopCompiled);
    out.bridgesCompiled = bus.count(xlayer::kBridgeCompiled);
    out.tracesAborted = bus.count(xlayer::kTraceAborted);
    out.traceEnters = bus.count(xlayer::kTraceEnter);
    out.deopts = bus.count(xlayer::kDeopt);
    out.gcMinor = bus.count(xlayer::kGcMinor);
    out.gcMajor = bus.count(xlayer::kGcMajor);

    out.icacheHits = ctx.core.icacheUnit().hits();
    out.icacheMisses = ctx.core.icacheUnit().misses();
    out.dcacheHits = ctx.core.dcacheUnit().hits();
    out.dcacheMisses = ctx.core.dcacheUnit().misses();

    const gc::Heap::HeapStats &hs = ctx.heap.stats();
    out.gcAllocations = hs.allocations;
    out.gcPromotedBytes = hs.totalPromotedBytes;
    out.gcFreedObjects = hs.totalFreed;
    out.gcLiveYoungBytes = ctx.heap.youngByteCount();
    out.gcLiveOldBytes = ctx.heap.oldByteCount();
    out.gcLiveYoungObjects = ctx.heap.youngObjectCount();
    out.gcLiveOldObjects = ctx.heap.oldObjectCount();
    out.spaceOps = ctx.space.opCount();

    const jit::TierStats &ts = ctx.backend.tierStats();
    out.tier1Compiles = ts.tier1Compiles;
    out.tier2Compiles = ts.tier2Compiles;
    out.tierPromotions = ts.promotions;
    out.tierUps = bus.count(xlayer::kTierUp);
    out.tier1CodeBytes = ts.tier1CodeBytes;
    out.tier2CodeBytes = ts.tier2CodeBytes;
    out.tier1RetiredBytes = ts.tier1RetiredBytes;
    out.tier1CompileInsts = ts.tier1CompileInsts;
    out.tier2CompileInsts = ts.tier2CompileInsts;
    out.tier1CyclesFp = ctx.executor.tierCyclesFp(1);
    out.tier2CyclesFp = ctx.executor.tierCyclesFp(2);

    out.irNodesCompiled = ctx.backend.totalIrNodesCompiled();
    out.irNodeMeta = ctx.backend.nodeMeta();
    out.irExecCounts = bus.ir.execCounts();
    out.irExecCounts.resize(out.irNodeMeta.size(), 0);

    out.aotFunctions = bus.aot.significantFunctions(0.0);

    out.iterationLatency = ctx.executor.iterationLatency();
    out.executionLength = ctx.executor.executionLength();

    if (ctx.sampler.enabled())
        out.profile = ctx.sampler.take();

    for (uint32_t r = 0; r < jit::kNumAbortReasons; ++r)
        out.abortReasons[r] = bus.abortReasons[r];
    out.tracesBlacklisted = bus.count(xlayer::kTraceBlacklisted);
    out.tracesRearmed = bus.count(xlayer::kTraceRearmed);
    out.tracesEvicted = bus.count(xlayer::kTraceEvicted);
    out.compileDowngrades = bus.count(xlayer::kCompileDowngrade);
    out.liveTraces = ctx.registry.liveCount();
    out.faultsArmed = ctx.faults.armed();
    for (uint32_t s = 0; s < rt::kNumFaultSites; ++s) {
        out.faultVisits[s] = ctx.faults.visits(rt::FaultSite(s));
        out.faultFired[s] = ctx.faults.fired(rt::FaultSite(s));
    }

    // Deopt attribution: join each program's lowering-time guard
    // provenance with the trace's runtime fail counters, symbolized
    // here so report-layer consumers carry no jit dependencies. After
    // a tier promotion guardStates are re-sized (counters reset) — the
    // table reflects the current program, like a real deopt log would.
    // Evicted registry slots hold nullptr and are skipped.
    for (const auto &t : ctx.registry.all()) {
        if (!t)
            continue;
        const jit::MicroProgram &prog = ctx.backend.program(t->id);
        for (const jit::GuardProvenance &g : prog.guards) {
            if (g.guardIdx >= t->guardStates.size())
                continue;
            const jit::GuardState &gs = t->guardStates[g.guardIdx];
            if (gs.failCount == 0)
                continue;
            DeoptSite site;
            site.traceId = t->id;
            site.traceIsBridge = t->isBridge;
            site.tier = t->tier;
            site.guardIdx = g.guardIdx;
            site.guardOp = jit::irOpName(g.op);
            site.mop = jit::mopName(jit::MOp(g.mop));
            site.fused = g.fused;
            site.originPc = g.originPc;
            site.failCount = gs.failCount;
            site.bridgeTraceId = gs.bridgeTraceId;
            out.deoptSites.push_back(std::move(site));
        }
        TraceSymbol sym;
        sym.traceId = t->id;
        sym.isBridge = t->isBridge;
        sym.tier = t->tier;
        sym.codePc = t->codePc;
        sym.codeInsts = t->codeInsts;
        sym.anchorPc = t->anchorPc;
        out.traceSymbols.push_back(sym);
    }
}

} // namespace

RunResult
runRktWorkload(const RunOptions &opts)
{
    const workloads::Workload *w = nullptr;
    for (const workloads::Workload &c : workloads::clbgSuite()) {
        if (c.name == opts.workload)
            w = &c;
    }
    if (!w || w->rktSource.empty()) {
        throw std::invalid_argument("no MiniRkt translation for " +
                                    opts.workload);
    }

    RunResult out;
    vm::VmConfig cfg = configFor(opts);
    vm::VmContext ctx(cfg);
    workloads::Workload tmp = *w;
    tmp.source = tmp.rktSource;
    std::string src = workloads::instantiate(tmp, opts.scale);
    auto prog = minirkt::compileRkt(src, ctx.space);
    minipy::Interp interp(ctx, *prog);
    out.completed = interp.run();
    out.output = interp.output();
    collect(ctx, out);
    return out;
}

RunResult
runWorkload(const RunOptions &opts)
{
    const workloads::Workload *w = workloads::findWorkload(opts.workload);
    if (!w)
        throw std::invalid_argument("unknown workload " + opts.workload);
    if (opts.vm == VmKind::RacketLike || opts.vm == VmKind::PycketJit) {
        throw std::invalid_argument(
            "use runRktWorkload for the Racket-family VMs");
    }

    RunResult out;
    vm::VmConfig cfg = configFor(opts);
    vm::VmContext ctx(cfg);

    std::string src = workloads::instantiate(*w, opts.scale);
    auto prog = minipy::compileSource(src, ctx.space);
    minipy::Interp interp(ctx, *prog);
    out.completed = interp.run();
    out.output = interp.output();
    collect(ctx, out);
    return out;
}

} // namespace driver
} // namespace xlvm
