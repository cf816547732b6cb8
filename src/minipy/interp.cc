#include "minipy/interp.h"

#include <algorithm>
#include <unordered_set>

#include "jit/opt.h"
#include "xlayer/annot.h"

// The bus bins kTraceAborted payloads without seeing the jit layer;
// its fixed array must fit every reason.
static_assert(xlvm::jit::kNumAbortReasons <=
                  xlvm::xlayer::AnnotationBus::kNumAbortReasons,
              "AnnotationBus abort-reason array too small");

namespace xlvm {
namespace minipy {

using jit::BoxType;
using jit::IrOp;
using jit::kNoArg;
using obj::CmpOp;
using obj::W_BoundMethod;
using obj::W_Class;
using obj::W_Dict;
using obj::W_Func;
using obj::W_Instance;
using obj::W_List;
using obj::W_NativeFunc;
using obj::W_Object;
using obj::W_Str;
using obj::W_Tuple;

namespace {

uint64_t
mergeKey(const Code *code, uint32_t pc)
{
    return reinterpret_cast<uint64_t>(code) ^
           (uint64_t(pc) * 0x9e3779b97f4a7c15ull);
}

} // namespace

Interp::Interp(vm::VmContext &context, Program &program)
    : ctx(context), prog(program)
{
    ctx.heap.addRootProvider(this);
    ctx.heap.addRootProvider(&prog);
    globalsDict = ctx.space.newDict();
    installBuiltins(ctx.space, globalsDict);
    dispatchPc = ctx.env.allocSite(64);
    tracingCostPc = ctx.env.allocSite(64);
    handlerPc.resize(size_t(Op::NumOps));
    for (size_t i = 0; i < handlerPc.size(); ++i)
        handlerPc[i] = ctx.env.allocSite(96);
}

Interp::~Interp()
{
    ctx.heap.removeRootProvider(&prog);
    ctx.heap.removeRootProvider(this);
}

void
Interp::forEachRoot(gc::GcVisitor &v)
{
    v.visit(globalsDict);
    for (const auto &f : frames) {
        for (W_Object *w : f->locals)
            v.visit(w);
        for (W_Object *w : f->stack)
            v.visit(w);
    }
    if (recorder) {
        recorder->forEachLiveRef([&](void *p) {
            v.visit(static_cast<gc::GcObject *>(p));
        });
    }
}

bool
Interp::run()
{
    pushFrame(prog.module, {}, {}, nullptr, false);
    return loop();
}

void
Interp::pushFrame(Code *code, std::vector<W_Object *> args,
                  std::vector<int32_t> arg_encs, W_Func *fn,
                  bool discard_return)
{
    auto f = std::make_unique<Frame>();
    f->code = code;
    f->locals.assign(code->localNames.size(), nullptr);
    XLVM_ASSERT(args.size() <= code->numParams, "too many args to ",
                code->name);
    uint32_t missing = code->numParams - uint32_t(args.size());
    XLVM_ASSERT(missing <= code->numDefaults, "missing args to ",
                code->name, " (got ", args.size(), ", want ",
                code->numParams, ")");
    for (size_t i = 0; i < args.size(); ++i)
        f->locals[i] = args[i];
    if (missing && fn) {
        size_t base = fn->defaults.size() - missing;
        for (uint32_t i = 0; i < missing; ++i)
            f->locals[args.size() + i] = fn->defaults[base + i];
    }
    if (recorder) {
        f->localEnc.assign(f->locals.size(),
                           recorder->constRef(nullptr));
        for (size_t i = 0; i < args.size(); ++i) {
            f->localEnc[i] = i < arg_encs.size() &&
                                     arg_encs[i] != jit::kNoArg
                                 ? arg_encs[i]
                                 : recorder->refEncoding(args[i]);
        }
        if (missing && fn) {
            size_t base = fn->defaults.size() - missing;
            for (uint32_t i = 0; i < missing; ++i) {
                f->localEnc[args.size() + i] =
                    recorder->refEncoding(fn->defaults[base + i]);
            }
        }
    }
    f->discardReturn = discard_return;
    frames.push_back(std::move(f));
}

// ---------------------------------------------------------------- JIT glue

void
Interp::bumpLoopCounter(Code *code, uint32_t target_pc)
{
    if (!ctx.config.jit.enableJit || tracing())
        return;
    uint64_t key = mergeKey(code, target_pc);
    auto pen = abortPenalty.find(key);
    if (pen != abortPenalty.end()) {
        if (--pen->second > 0)
            return;
        abortPenalty.erase(pen);
    }
    const vm::JitParams &jp = ctx.config.jit;
    // Baseline tiers trace earlier: cheap compiles shift the warmup
    // tradeoff toward "compile sooner, run slower" (multi-tier JIT).
    uint32_t threshold = (jp.tierMode == vm::TierMode::Tier1 ||
                          jp.tierMode == vm::TierMode::Multi)
                             ? jp.tier1Threshold
                             : jp.loopThreshold;
    uint32_t &ctr = loopCounters[key];
    if (++ctr >= threshold) {
        ctr = 0;
        if (!ctx.registry.loopFor(code, target_pc))
            startLoopTrace(code, target_pc);
    }
}

void
Interp::startLoopTrace(Code *code, uint32_t pc)
{
    recorder = std::make_unique<jit::Recorder>(
        code, pc, /*bridge=*/false,
        jit::RecorderLimits{ctx.config.jit.maxTraceOps});
    traceRootFrame = frames.back().get();
    traceRootDepth = frames.size() - 1;
    traceAnchorCode = code;
    traceAnchorPc = pc;
    recordingBridge = false;
    lastRecordedOps = 0;
    ++tracesStarted;

    // Inputs: root frame locals + stack; each slot's shadow encoding is
    // its own input box.
    recorder->setAnchorLocals(uint32_t(traceRootFrame->locals.size()));
    Frame &rf = *traceRootFrame;
    rf.localEnc.clear();
    rf.stackEnc.clear();
    for (W_Object *w : rf.locals)
        rf.localEnc.push_back(recorder->addInputRef(w));
    for (W_Object *w : rf.stack)
        rf.stackEnc.push_back(recorder->addInputRef(w));

    ctx.env.setRecorder(recorder.get());
    sim::BlockEmitter e(ctx.core, tracingCostPc);
    e.annot(xlayer::kPhaseEnter, uint32_t(xlayer::Phase::Tracing));
}

void
Interp::startBridgeTrace(uint32_t parent_trace, uint32_t guard_idx,
                         size_t root_depth)
{
    recorder = std::make_unique<jit::Recorder>(
        frames[root_depth]->code, frames[root_depth]->pc, /*bridge=*/true,
        jit::RecorderLimits{ctx.config.jit.maxTraceOps});
    traceRootFrame = frames[root_depth].get();
    traceRootDepth = root_depth;
    traceAnchorCode = nullptr;
    traceAnchorPc = 0;
    recordingBridge = true;
    bridgeParentTrace = parent_trace;
    bridgeGuardIdx = guard_idx;
    lastRecordedOps = 0;
    ++tracesStarted;

    // Inputs: every slot of every frame from the bridge root to the top,
    // in vm::materializeInputs' bridge input order; slot shadows are the
    // input boxes.
    for (size_t d = root_depth; d < frames.size(); ++d) {
        Frame &bf = *frames[d];
        bf.localEnc.clear();
        bf.stackEnc.clear();
        for (W_Object *w : bf.locals)
            bf.localEnc.push_back(recorder->addInputRef(w));
        for (W_Object *w : bf.stack)
            bf.stackEnc.push_back(recorder->addInputRef(w));
    }

    ctx.env.setRecorder(recorder.get());
    sim::BlockEmitter e(ctx.core, tracingCostPc);
    e.annot(xlayer::kPhaseEnter, uint32_t(xlayer::Phase::Tracing));
}

void
Interp::noteAbort(jit::AbortReason reason)
{
    ++tracesAbortedCount;
    if (traceAnchorCode) {
        abortPenalty[mergeKey(traceAnchorCode, traceAnchorPc)] =
            ctx.config.jit.abortPenalty;
    }
    sim::BlockEmitter e(ctx.core, tracingCostPc);
    e.annot(xlayer::kTraceAborted, uint32_t(reason));
    e.annot(xlayer::kPhaseExit, uint32_t(xlayer::Phase::Tracing));
}

void
Interp::abortTrace(jit::AbortReason reason)
{
#ifdef XLVM_DEBUG_TRACE
    std::fprintf(stderr, "ABORT: %s (bridge=%d)\n",
                 jit::abortReasonName(reason), int(recordingBridge));
#endif
    noteAbort(reason);
    ctx.env.setRecorder(nullptr);
    recorder.reset();
}

void
Interp::emitCompileCost(uint64_t work, uint32_t trace_id)
{
    // Sampler context: the modeled compile loop is attributable to the
    // trace being compiled, not to whatever interp context surrounds it.
    const uint64_t savedCtx = ctx.core.profileContext();
    ctx.core.setProfileContext(
        sim::sampleCtxPack(sim::SampleCtxKind::Compile, 0, trace_id));
    for (uint64_t i = 0; i < work; i += 4) {
        sim::BlockEmitter body(ctx.core, tracingCostPc + 32);
        body.load(tracingCostPc + (i % 256) * 8, 1);
        body.alu(2);
        body.branch(i % 16 == 0);
    }
    ctx.core.setProfileContext(savedCtx);
}

jit::OptParams
Interp::optParams() const
{
    jit::OptParams op;
    op.foldConstants = ctx.config.jit.optFoldConstants;
    op.elideGuards = ctx.config.jit.optElideGuards;
    op.heapCache = ctx.config.jit.optHeapCache;
    op.virtualize = ctx.config.jit.optVirtualize;
    op.classOf = [](void *p) {
        return p ? uint32_t(static_cast<W_Object *>(p)->typeId()) : 0u;
    };
    return op;
}

bool
Interp::registerAndAttach(jit::Trace &&raw, bool is_bridge,
                          jit::Trace *bridge_target)
{
    (void)bridge_target;
    const vm::JitParams &jp = ctx.config.jit;
    const bool baseline = jp.tierMode == vm::TierMode::Tier1 ||
                          jp.tierMode == vm::TierMode::Multi;
    uint32_t rawOps = uint32_t(raw.ops.size());
#ifdef XLVM_DEBUG_TRACE
    raw.id = ctx.registry.nextId();
    std::fprintf(stderr, "=== RAW %s\n", raw.dump().c_str());
#endif

    // Containment gate 1: never hand a malformed recording to the
    // backend — a structurally broken trace would corrupt the heap at
    // execution time. Discard it and keep interpreting.
    {
        jit::VerifyResult vr =
            jit::verifyTrace(raw, jit::AbortReason::kMalformedTrace);
        if (!vr.ok) {
            XLVM_WARN("recording rejected (safe bailout): ", vr.detail);
            noteAbort(vr.reason);
            return false;
        }
    }

    // Containment gate 2: an injected backend failure discards the
    // recording exactly like a real code-emission failure would.
    if (ctx.faults.shouldFire(rt::FaultSite::kBackend)) {
        noteAbort(jit::AbortReason::kInjected);
        return false;
    }

    // Containment gate 3: trace-cache pressure. Evict cold roots to
    // make room; abort the registration when nothing is evictable. An
    // injected trace-cache fault exercises the same abort path. Traces
    // the incoming recording references (call_assembler targets, the
    // close-jump loop, the bridge's parent) are pinned for this pass.
    evictionPins.clear();
    for (const jit::ResOp &op : raw.ops) {
        if (op.op == IrOp::CallAssembler)
            evictionPins.insert(op.aux);
        else if (op.op == IrOp::Jump && op.aux != 0)
            evictionPins.insert(op.aux - 1);
    }
    if (is_bridge)
        evictionPins.insert(bridgeParentTrace);
    bool cacheFault = ctx.faults.shouldFire(rt::FaultSite::kTraceCache);
    if (cacheFault || !ensureTraceCacheCapacity()) {
        noteAbort(jit::AbortReason::kTraceCacheFull);
        return false;
    }

    uint32_t id = ctx.registry.nextId();

    // Graceful degradation: an over-budget, injected-faulty or
    // verification-failing optimization retries at tier 1 (baseline
    // lowering of the same recording) instead of discarding it.
    jit::AbortReason downgrade = jit::AbortReason::kNone;
    if (!baseline) {
        if (jp.compileBudgetOps && rawOps > jp.compileBudgetOps)
            downgrade = jit::AbortReason::kCompileBudget;
        else if (ctx.faults.shouldFire(rt::FaultSite::kOptimizer))
            downgrade = jit::AbortReason::kInjected;
    }

    // Compile (tier by mode) and charge the modeled compile cost to the
    // Tracing phase, proportional to the recorded trace length.
    std::unique_ptr<jit::Trace> compiled;
    std::unique_ptr<jit::Trace> retained;
    uint64_t work;
    if (!baseline && downgrade == jit::AbortReason::kNone) {
        auto opt = std::make_unique<jit::Trace>(
            jit::optimize(raw, optParams(), nullptr));
        opt->id = id;
        jit::VerifyResult vr =
            jit::verifyTrace(*opt, jit::AbortReason::kOptimizerFailure);
        if (vr.ok) {
            compiled = std::move(opt);
        } else {
            XLVM_WARN("optimizer output rejected (tier-1 retry): ",
                      vr.detail);
            downgrade = jit::AbortReason::kOptimizerFailure;
        }
    }
    if (compiled) {
        ctx.backend.compile(*compiled);
        work = uint64_t(rawOps) * ctx.env.costs().optPerOpInsts;
        ctx.backend.addCompileCost(2, work);
    } else {
        // Tier-1 baseline: lower the raw recording directly, skipping
        // the optimizer entirely — the mode default or a downgrade
        // retry. Multi mode keeps a copy of the raw ops so a later
        // tier-up can re-optimize from the original.
        if (jp.tierMode == vm::TierMode::Multi)
            retained = std::make_unique<jit::Trace>(raw);
        compiled = std::make_unique<jit::Trace>(std::move(raw));
        compiled->id = id;
        ctx.backend.compileBaseline(*compiled);
        work = uint64_t(rawOps) * ctx.env.costs().tier1PerOpInsts;
        ctx.backend.addCompileCost(1, work);
    }
    emitCompileCost(work, id);

    sim::BlockEmitter e(ctx.core, tracingCostPc);
    if (downgrade != jit::AbortReason::kNone)
        e.annot(xlayer::kCompileDowngrade, id);
    if (compiled->tier == 1)
        e.annot(xlayer::kTier1Compile, id);
    e.annot(is_bridge ? xlayer::kBridgeCompiled : xlayer::kLoopCompiled,
            id);
    e.annot(xlayer::kPhaseExit, uint32_t(xlayer::Phase::Tracing));

    ctx.registry.add(std::move(compiled));
    if (retained)
        ctx.registry.retainRaw(id, std::move(retained));
    return true;
}

bool
Interp::ensureTraceCacheCapacity()
{
    const vm::JitParams &jp = ctx.config.jit;
    if (!jp.maxTraces)
        return true;
    while (ctx.registry.liveCount() >= jp.maxTraces) {
        if (!evictColdestRoot())
            return false;
    }
    return true;
}

bool
Interp::evictColdestRoot()
{
    // Cross-trace references: call_assembler targets and bridge
    // close-jumps into loop headers. A trace referenced from outside
    // its own bridge closure must not be evicted (its id would dangle
    // in live compiled code).
    std::vector<std::pair<uint32_t, uint32_t>> edges; // (from, to)
    for (const auto &tp : ctx.registry.all()) {
        if (!tp)
            continue;
        for (const jit::ResOp &op : tp->ops) {
            if (op.op == IrOp::CallAssembler)
                edges.emplace_back(tp->id, op.aux);
            else if (op.op == IrOp::Jump && op.aux != 0)
                edges.emplace_back(tp->id, op.aux - 1);
        }
    }

    jit::Trace *best = nullptr;
    std::vector<uint32_t> bestClosure;
    for (const auto &tp : ctx.registry.all()) {
        jit::Trace *t = tp.get();
        if (!t || t->isBridge)
            continue;
        // The root plus every bridge reachable through its guard exits
        // (bridges of bridges included) leave together.
        std::unordered_set<uint32_t> closure;
        std::vector<jit::Trace *> work{t};
        closure.insert(t->id);
        while (!work.empty()) {
            jit::Trace *cur = work.back();
            work.pop_back();
            for (const jit::GuardState &gs : cur->guardStates) {
                if (gs.bridgeTraceId < 0)
                    continue;
                jit::Trace *b =
                    ctx.registry.byId(uint32_t(gs.bridgeTraceId));
                if (b && closure.insert(b->id).second)
                    work.push_back(b);
            }
        }
        bool pinnedOrReferenced = false;
        for (uint32_t id : closure) {
            if (evictionPins.count(id)) {
                pinnedOrReferenced = true;
                break;
            }
        }
        for (const auto &[from, to] : edges) {
            if (pinnedOrReferenced)
                break;
            if (closure.count(to) && !closure.count(from))
                pinnedOrReferenced = true;
        }
        if (pinnedOrReferenced)
            continue;
        if (!best || t->executions < best->executions ||
            (t->executions == best->executions && t->id < best->id)) {
            best = t;
            bestClosure.assign(closure.begin(), closure.end());
        }
    }
    if (!best)
        return false;

    std::sort(bestClosure.begin(), bestClosure.end());
    sim::BlockEmitter e(ctx.core, tracingCostPc);
    for (uint32_t id : bestClosure) {
        e.annot(xlayer::kTraceEvicted, id);
        ctx.registry.evict(id);
        // Drop pending executor work against the evicted ids.
        auto &promos = ctx.executor.pendingPromotions;
        promos.erase(std::remove(promos.begin(), promos.end(), id),
                     promos.end());
        auto &hot = ctx.executor.hotGuards;
        hot.erase(std::remove_if(hot.begin(), hot.end(),
                                 [id](const auto &hg) {
                                     return hg.first == id;
                                 }),
                  hot.end());
    }
    return true;
}

void
Interp::drainPromotions()
{
    if (ctx.executor.pendingPromotions.empty() || tracing())
        return;
    std::vector<uint32_t> ids;
    ids.swap(ctx.executor.pendingPromotions);
    for (uint32_t id : ids)
        promoteTrace(id);
}

void
Interp::promoteTrace(uint32_t trace_id)
{
    jit::Trace *t = ctx.registry.byId(trace_id);
    if (!t || t->tier != 1)
        return; // evicted since the request, or already promoted
    std::unique_ptr<jit::Trace> raw = ctx.registry.takeRaw(trace_id);
    if (!raw)
        return; // no retained recording (tier1-only mode)
    const vm::JitParams &jp = ctx.config.jit;
    if ((jp.compileBudgetOps && raw->ops.size() > jp.compileBudgetOps) ||
        ctx.faults.shouldFire(rt::FaultSite::kOptimizer)) {
        // Over budget or injected optimizer fault: stay at tier 1 (the
        // baseline program keeps running; promotionRequested stays set
        // so the request is not re-queued).
        sim::BlockEmitter e(ctx.core, tracingCostPc);
        e.annot(xlayer::kCompileDowngrade, trace_id);
        return;
    }

    // Re-optimize the original recording and swap the trace's program
    // in place; the trace keeps its id, anchor and hotness, so the
    // registry index and every call_assembler reference stay valid.
    // Bridges attached to tier-1 guard indices are detached by the
    // recompile (guard indices are meaningless across tiers).
    {
        sim::BlockEmitter e(ctx.core, tracingCostPc);
        e.annot(xlayer::kPhaseEnter, uint32_t(xlayer::Phase::Tracing));
    }
    uint32_t rawOps = uint32_t(raw->ops.size());
    jit::Trace optimized = jit::optimize(*raw, optParams(), nullptr);
    optimized.id = trace_id;
    jit::VerifyResult vr =
        jit::verifyTrace(optimized, jit::AbortReason::kOptimizerFailure);
    if (!vr.ok) {
        // Keep running the verified tier-1 program instead.
        XLVM_WARN("promotion output rejected (staying tier-1): ",
                  vr.detail);
        sim::BlockEmitter fin(ctx.core, tracingCostPc);
        fin.annot(xlayer::kCompileDowngrade, trace_id);
        fin.annot(xlayer::kPhaseExit, uint32_t(xlayer::Phase::Tracing));
        return;
    }
    ctx.backend.promote(*t, std::move(optimized));

    uint64_t work = uint64_t(rawOps) * ctx.env.costs().optPerOpInsts;
    ctx.backend.addCompileCost(2, work);
    emitCompileCost(work, trace_id);
    ++promotionsPerformed;

    sim::BlockEmitter e(ctx.core, tracingCostPc);
    e.annot(xlayer::kTierUp, trace_id);
    e.annot(xlayer::kPhaseExit, uint32_t(xlayer::Phase::Tracing));
}

std::vector<int32_t>
Interp::frameSlotEncodings(Frame &f)
{
    XLVM_ASSERT(f.localEnc.size() == f.locals.size() &&
                    f.stackEnc.size() == f.stack.size(),
                "shadow stacks out of sync in ", f.code->name);
    std::vector<int32_t> out;
    out.reserve(f.localEnc.size() + f.stackEnc.size());
    out.insert(out.end(), f.localEnc.begin(), f.localEnc.end());
    out.insert(out.end(), f.stackEnc.begin(), f.stackEnc.end());
    return out;
}

void
Interp::finishLoopTrace()
{
    recorder->closeLoop(frameSlotEncodings(*traceRootFrame));
    jit::Trace raw = recorder->take();
    ctx.env.setRecorder(nullptr);
    recorder.reset();
    if (registerAndAttach(std::move(raw), false, nullptr))
        ++tracesCompleted;
}

void
Interp::finishBridgeTrace(jit::Trace *target)
{
    recorder->closeBridge(target->id,
                          frameSlotEncodings(*traceRootFrame));
    jit::Trace raw = recorder->take();
    ctx.env.setRecorder(nullptr);
    recorder.reset();
    uint32_t bridgeId = ctx.registry.nextId();
    if (!registerAndAttach(std::move(raw), true, target))
        return;
    ++bridgesCompleted;
    ctx.registry.byId(bridgeParentTrace)
        ->guardStates[bridgeGuardIdx]
        .bridgeTraceId = int32_t(bridgeId);
}

jit::Snapshot
Interp::captureSnapshot()
{
    jit::Snapshot snap;
    for (size_t d = traceRootDepth; d < frames.size(); ++d) {
        Frame &f = *frames[d];
        XLVM_ASSERT(f.localEnc.size() == f.locals.size() &&
                        f.stackEnc.size() == f.stack.size(),
                    "shadow stacks out of sync in ", f.code->name);
        jit::FrameSnapshot fs;
        fs.code = f.code;
        fs.pc = f.pc;
        fs.locals = f.localEnc;
        fs.stack = f.stackEnc;
        snap.frames.push_back(std::move(fs));
    }
    return snap;
}

bool
Interp::checkBlacklist(jit::Trace *t)
{
    if (!t->blacklisted)
        return true;
    // Demoted to the interpreter: each merge-point visit burns one
    // cooldown tick; at zero the trace is re-armed for another try.
    if (t->cooldownRemaining > 0 && --t->cooldownRemaining == 0) {
        t->blacklisted = false;
        t->stormScore = 0;
        sim::BlockEmitter e(ctx.core, tracingCostPc);
        e.annot(xlayer::kTraceRearmed, t->id);
        return true;
    }
    return false;
}

void
Interp::noteTraceProgress(jit::Trace *t, uint64_t iters)
{
    const vm::JitParams &jp = ctx.config.jit;
    if (!jp.stormThreshold)
        return;
    if (iters > 0) {
        t->stormScore = 0;
        return;
    }
    // Zero-progress entry: the run failed a guard before completing a
    // single back-edge. A storm of these means the compiled code no
    // longer matches the live types and every entry is pure overhead.
    if (++t->stormScore < jp.stormThreshold)
        return;
    t->blacklisted = true;
    t->stormScore = 0;
    uint32_t gen = ++t->blacklistGen;
    uint32_t shift = std::min(gen - 1, jp.blacklistBackoffCap);
    t->cooldownRemaining = uint64_t(jp.blacklistCooldown) << shift;
    sim::BlockEmitter e(ctx.core, tracingCostPc);
    e.annot(xlayer::kTraceBlacklisted, t->id);
}

bool
Interp::maybeEnterCompiledTrace(Frame &f)
{
    // Apply queued tier-ups first so the program swap is atomic between
    // trace runs (never under a live register file).
    drainPromotions();
    jit::Trace *t = ctx.registry.loopFor(f.code, f.pc);
    if (!t)
        return false;
    if (!checkBlacklist(t))
        return false;
    if (t->numInputs != f.locals.size() + f.stack.size())
        return false;
    std::vector<jit::RtVal> inputs;
    inputs.reserve(t->numInputs);
    for (W_Object *w : f.locals)
        inputs.push_back(jit::RtVal::fromRef(w));
    for (W_Object *w : f.stack)
        inputs.push_back(jit::RtVal::fromRef(w));

    size_t rootDepth = frames.size() - 1;
    uint64_t itersBefore = ctx.executor.iterationCount();
    vm::DeoptResult res = ctx.executor.run(*t, inputs);
    noteTraceProgress(t, ctx.executor.iterationCount() - itersBefore);
    applyDeopt(res, rootDepth);

    // Bridge requests from hot guard exits. A trace that is about to
    // tier up keeps its guards only until the recompile, so recording a
    // bridge against its tier-1 guard indices would be dead on arrival:
    // the promotion wins the race and the bridge request is dropped.
    if (!ctx.executor.hotGuards.empty()) {
        auto [tid, gidx] = ctx.executor.hotGuards.back();
        ctx.executor.hotGuards.clear();
        bool promoPending =
            std::find(ctx.executor.pendingPromotions.begin(),
                      ctx.executor.pendingPromotions.end(),
                      tid) != ctx.executor.pendingPromotions.end();
        if (!tracing() && !promoPending && tid == res.traceId &&
            gidx == res.guardOpIdx) {
            size_t bridgeRoot = frames.size() - res.frames.size();
            startBridgeTrace(tid, gidx, bridgeRoot);
        }
    }
    return true;
}

void
Interp::applyDeopt(const vm::DeoptResult &res, size_t root_depth)
{
    XLVM_ASSERT(!res.frames.empty(), "empty deopt state");
    XLVM_ASSERT(root_depth < frames.size(), "bad deopt root depth");
    // The outermost deopt frame replaces the frame the trace was entered
    // from; inlined frames are pushed above it.
    frames.resize(root_depth + 1);
    Frame &base = *frames[root_depth];
    XLVM_ASSERT(base.code == static_cast<Code *>(res.frames[0].code),
                "deopt code mismatch");
    base.pc = res.frames[0].pc;
    base.locals = res.frames[0].locals;
    base.stack = res.frames[0].stack;
    for (size_t i = 1; i < res.frames.size(); ++i) {
        auto nf = std::make_unique<Frame>();
        nf->code = static_cast<Code *>(res.frames[i].code);
        nf->pc = res.frames[i].pc;
        nf->locals = res.frames[i].locals;
        nf->stack = res.frames[i].stack;
        frames.push_back(std::move(nf));
    }
}

bool
Interp::maybeCallAssembler(Frame &f)
{
    // While tracing, an inner compiled loop becomes call_assembler.
    jit::Trace *t = ctx.registry.loopFor(f.code, f.pc);
    if (!t)
        return false;
    if (t->blacklisted)
        return false; // storming inner loop: keep interpreting it
    if (t->numInputs != f.locals.size() + f.stack.size())
        return false;
    // If an inner trace entered here deopts without advancing (e.g., an
    // exhausted iterator at the header), re-running it would loop
    // forever without ever reaching the trace-length check. Require one
    // interpreted dispatch in between.
    if (lastCallAsmDispatch == executedCount &&
        lastCallAsmFrame == &f && lastCallAsmPc == f.pc)
        return false;
    lastCallAsmDispatch = executedCount;
    lastCallAsmFrame = &f;
    lastCallAsmPc = f.pc;

    // Capture input encodings before executing.
    std::vector<int32_t> inEncs = frameSlotEncodings(f);
    std::vector<jit::RtVal> inputs;
    inputs.reserve(t->numInputs);
    for (W_Object *w : f.locals)
        inputs.push_back(jit::RtVal::fromRef(w));
    for (W_Object *w : f.stack)
        inputs.push_back(jit::RtVal::fromRef(w));

    size_t depthBefore = frames.size() - 1;
    vm::DeoptResult res = ctx.executor.run(*t, inputs);
    ctx.executor.hotGuards.clear(); // no bridges while tracing

    if (res.frames.size() != 1 ||
        static_cast<Code *>(res.frames[0].code) != f.code) {
        // Exit state not expressible as call_assembler: the real state
        // has advanced, so the recording is no longer a prefix — abort.
        abortTrace(jit::AbortReason::kCallAssemblerExit);
        applyDeopt(res, depthBefore);
        return true;
    }

    // Record the call with input refs, fresh output boxes, and (from
    // frames[2] on) a resume snapshot of the *outer* frames so an
    // unexpected inner exit can reconstruct the full interpreter state.
    jit::Snapshot io;
    jit::FrameSnapshot inF;
    inF.stack = std::move(inEncs);
    io.frames.push_back(std::move(inF));
    // Capture the outer resume frames with their PRE-call encodings,
    // before any live object is rebound to the call's fresh output
    // boxes below: on an unexpected inner exit those boxes are never
    // written, so a snapshot referencing them would materialize stale
    // or default register values into the rebuilt frames.
    std::vector<jit::FrameSnapshot> outerFs;
    for (size_t d = traceRootDepth; d + 1 < frames.size(); ++d) {
        Frame &outer = *frames[d];
        jit::FrameSnapshot ofs;
        ofs.code = outer.code;
        ofs.pc = outer.pc;
        for (W_Object *w : outer.locals) {
            ofs.locals.push_back(w ? recorder->refEncoding(w)
                                   : recorder->constRef(nullptr));
        }
        for (W_Object *w : outer.stack)
            ofs.stack.push_back(recorder->refEncoding(w));
        outerFs.push_back(std::move(ofs));
    }
    jit::FrameSnapshot outF;
    outF.code = res.frames[0].code;
    outF.pc = res.frames[0].pc;
    for (W_Object *w : res.frames[0].locals) {
        int32_t box = recorder->newRefBox();
        if (w)
            recorder->mapRef(w, box);
        outF.locals.push_back(box);
    }
    for (W_Object *w : res.frames[0].stack) {
        int32_t box = recorder->newRefBox();
        if (w)
            recorder->mapRef(w, box);
        outF.stack.push_back(box);
    }
    io.frames.push_back(std::move(outF));
    for (jit::FrameSnapshot &ofs : outerFs)
        io.frames.push_back(std::move(ofs));
    // Keep a copy of the output encodings to restore slot shadows.
    std::vector<int32_t> outLocalEnc = io.frames[1].locals;
    std::vector<int32_t> outStackEnc = io.frames[1].stack;
    recorder->recordCallAssembler(t->id, std::move(io),
                                  res.frames[0].pc);

    applyDeopt(res, depthBefore);
    Frame &restored = *frames.back();
    restored.localEnc = std::move(outLocalEnc);
    restored.stackEnc = std::move(outStackEnc);
    return true;
}

void
Interp::emitTracingCost()
{
    uint32_t ops = recorder->numOps();
    uint32_t delta = ops - lastRecordedOps;
    lastRecordedOps = ops;
    uint64_t work =
        uint64_t(delta) * ctx.env.costs().tracePerOpInsts;
    for (uint64_t i = 0; i < work; i += 5) {
        sim::BlockEmitter e(ctx.core, tracingCostPc + 16);
        e.load(tracingCostPc + (i % 128) * 8, 2);
        e.alu(2);
        e.store(tracingCostPc + 0x400 + (i % 128) * 8);
        e.branch(i % 10 == 0);
    }
}

void
Interp::emitDispatch(uint8_t opcode)
{
    const obj::CostParams &c = ctx.env.costs();
    sim::BlockEmitter e(ctx.core, dispatchPc);
    e.annot(xlayer::kDispatch, opcode);
    for (uint32_t i = 0; i < c.dispatchLoads; ++i)
        e.loadPtr(this, c.interpLoadStall);
    e.alu(c.dispatchAlus);
    if (ctx.env.isRPython()) {
        e.alu(c.rpyDispatchExtraAlus);
        for (uint32_t i = 0; i < c.rpyDispatchExtraLoads; ++i)
            e.loadPtr(&frames, 1);
    }
    e.indirectJump(handlerPc[opcode]);
    sim::BlockEmitter h(ctx.core, handlerPc[opcode]);
    h.alu(c.handlerEntryAlus);
}

} // namespace minipy
} // namespace xlvm
