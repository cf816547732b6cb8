/**
 * @file
 * Benchmark runner: executes one workload on one modeled VM and collects
 * every metric the paper's tables and figures report.
 */

#ifndef XLVM_DRIVER_RUNNER_H
#define XLVM_DRIVER_RUNNER_H

#include <array>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "jit/backend.h"
#include "jit/bailout.h"
#include "rt/faults.h"
#include "vm/registry.h"
#include "xlayer/aot_profiler.h"
#include "xlayer/phase_profiler.h"
#include "xlayer/sampler.h"
#include "xlayer/tracer.h"
#include "xlayer/work_profiler.h"

namespace xlvm {
namespace driver {

/** The VM configurations of Section III. */
enum class VmKind
{
    CPythonLike, ///< hand-written C interpreter analog (refcount costs)
    PyPyNoJit,   ///< translated RPython interpreter, JIT disabled
    PyPyJit,     ///< translated RPython interpreter + meta-tracing JIT
    RacketLike,  ///< custom method-JIT VM analog (MiniRkt)
    PycketJit,   ///< MiniRkt on the meta-tracing framework
};

const char *vmKindName(VmKind k);

struct RunOptions
{
    VmKind vm = VmKind::PyPyJit;
    std::string workload;
    int64_t scale = 0;          ///< 0 = workload default
    uint64_t maxInstructions = 0;
    bool irAnnotations = false; ///< per-IR-node profiling (Figs 6, 8)
    uint64_t timelineBin = 0;   ///< phase timeline bin (Fig 3)
    uint64_t workSampleInstrs = 50000;
    uint32_t loopThreshold = 1039;
    uint32_t bridgeThreshold = 200;
    /** Superinstruction fusion in the trace execution engine (host
     *  dispatch only; modeled counters are invariant). */
    bool jitFuseMicroOps = true;
    /** Inert, ignored: the frozen host benchmark (hostbench/) still
     *  sets these; the next benchmark revision drops them. */
    bool simMemo = true;
    bool simSuperblock = true;
    /** Optimizer ablation toggles. */
    bool optVirtualize = true;
    bool optHeapCache = true;
    bool optElideGuards = true;
    bool optFoldConstants = true;
    /**
     * Compilation-tier policy (vm::TierMode). Tier2 is the pre-tiering
     * default; Tier1/Multi compile raw traces at tier1Threshold without
     * the optimizer, Multi promotes at tier2Threshold executions.
     */
    vm::TierMode tierMode = vm::TierMode::Tier2;
    uint32_t tier1Threshold = 130;
    uint32_t tier2Threshold = 100;
    /**
     * Streaming event-tracer ring capacity in events (0 = tracing off).
     * When full the ring wraps: the newest events survive, overwritten
     * ones are counted in RunResult::trace.droppedEvents.
     */
    uint64_t traceBufferEvents = 0;
    /** Which AnnotTags the tracer records (bit per tag). */
    uint32_t traceTagMask = xlayer::kDefaultTraceTagMask;
    /** Run identity stamped into every trace record (sweep index). */
    uint32_t traceRunId = 0;
    /**
     * Cycle-driven sampling profiler interval in modeled cycles (0 =
     * off). Sampling is pure host-side observation: every modeled
     * counter is bit-identical with it on or off, and for a fixed
     * configuration the profile itself is deterministic — independent
     * of --jobs, process count, or repetition.
     */
    uint64_t profileIntervalCycles = 0;
    /**
     * Fault-injection spec (rt::FaultEngine grammar: "site:nth" entries,
     * comma-separated); empty = disarmed, zero-cost. Trigger counters
     * are visit-based, so an injected failure is deterministic and
     * --jobs-invariant.
     */
    std::string inject;
    /** Fault-containment policies (vm::JitParams analogs). */
    uint32_t stormThreshold = 600;
    uint32_t blacklistCooldown = 4000;
    uint32_t compileBudgetOps = 0; ///< 0 = unlimited
    uint32_t maxTraces = 0;        ///< 0 = unlimited

    /** Memberwise, so a field added later takes part by itself; two
     *  equal options simulate the same run. */
    bool operator==(const RunOptions &) const = default;
};

/**
 * One guard site's deopt attribution: lowering-time provenance
 * (jit::GuardProvenance) joined with the trace's runtime fail counter
 * and bridge attachment, symbolized so report-layer consumers need no
 * jit includes. Only sites that failed at least once are collected.
 */
struct DeoptSite
{
    uint32_t traceId = 0;
    bool traceIsBridge = false;
    uint8_t tier = 2;          ///< tier of the owning trace at collection
    uint32_t guardIdx = 0;     ///< Trace::ops index of the guard
    std::string guardOp;       ///< IR opcode name (e.g. "guard_true")
    std::string mop;           ///< executing micro-op (fused pair name)
    bool fused = false;        ///< dispatched as a superinstruction
    uint32_t originPc = 0;     ///< bytecode pc of the producing site
    uint64_t failCount = 0;
    int32_t bridgeTraceId = -1; ///< attached bridge, or -1
};

/** Code-object symbol for one compiled trace (profile symbolization). */
struct TraceSymbol
{
    uint32_t traceId = 0;
    bool isBridge = false;
    uint8_t tier = 2;
    uint64_t codePc = 0;    ///< base address in the JIT code arena
    uint32_t codeInsts = 0; ///< modeled code footprint (instructions)
    uint32_t anchorPc = 0;  ///< anchor bytecode pc (loop merge point)
};

struct RunResult
{
    bool completed = false;
    std::string output;
    /** Non-empty if the run failed (exception text); see runWorkloadsParallel. */
    std::string error;

    // Overall machine-level metrics (Table I / II).
    double seconds = 0.0;
    double cycles = 0.0;
    uint64_t instructions = 0;
    double ipc = 0.0;
    double branchMpki = 0.0;
    double branchRate = 0.0;
    double branchMissRate = 0.0;

    // Phase breakdown (Figure 2 / 4) and per-phase counters (Table IV).
    std::array<double, xlayer::kNumPhases> phaseShares{};
    std::array<sim::PerfCounters, xlayer::kNumPhases> phaseCounters{};
    std::vector<xlayer::PhaseTimelineBin> timeline;

    // Interpreter-level (Figure 5).
    uint64_t work = 0; ///< dispatch quanta completed
    std::vector<xlayer::WorkSample> warmupCurve;

    // Streaming event tracer (empty unless traceBufferEvents > 0).
    xlayer::TraceLog trace;
    /** Malformed kPhaseExit events rejected by the phase profiler. */
    uint64_t phaseUnderflows = 0;

    // Framework events.
    uint64_t loopsCompiled = 0;
    uint64_t bridgesCompiled = 0;
    uint64_t tracesAborted = 0;
    uint64_t traceEnters = 0;
    uint64_t deopts = 0;
    uint64_t gcMinor = 0;
    uint64_t gcMajor = 0;

    // Machine-level structure counters (caches; metrics reports).
    uint64_t icacheHits = 0;
    uint64_t icacheMisses = 0;
    uint64_t dcacheHits = 0;
    uint64_t dcacheMisses = 0;

    // Inert, always 0: the frozen host benchmark (hostbench/) still
    // reads these; the next benchmark revision drops them.
    uint64_t memoHits = 0;
    uint64_t memoMisses = 0;
    uint64_t memoReplayedInstructions = 0;
    uint64_t sbHits = 0;
    uint64_t sbMisses = 0;
    uint64_t sbDivergences = 0;
    uint64_t sbReplayedInstructions = 0;

    // GC heap / object-space level (metrics reports).
    uint64_t gcAllocations = 0;
    uint64_t gcPromotedBytes = 0;
    uint64_t gcFreedObjects = 0;
    uint64_t gcLiveYoungBytes = 0;
    uint64_t gcLiveOldBytes = 0;
    uint64_t gcLiveYoungObjects = 0;
    uint64_t gcLiveOldObjects = 0;
    uint64_t spaceOps = 0; ///< object-space operations emitted

    // Multi-tier JIT (schema v4 jit_tiers section).
    uint64_t tier1Compiles = 0;
    uint64_t tier2Compiles = 0;
    uint64_t tierPromotions = 0;
    uint64_t tierUps = 0; ///< annotation-stream cross-check
    uint64_t tier1CodeBytes = 0;
    uint64_t tier2CodeBytes = 0;
    uint64_t tier1RetiredBytes = 0;
    uint64_t tier1CompileInsts = 0;
    uint64_t tier2CompileInsts = 0;
    uint64_t tier1CyclesFp = 0;
    uint64_t tier2CyclesFp = 0;

    // Fault containment (schema v7 jit_robustness section). The abort
    // counters are modeled (annotation-stream derived, golden-gated);
    // the fault_* telemetry is host-side trigger bookkeeping and is
    // excluded from golden comparison (--ignore-section jit_robustness
    // in the armed golden pass).
    std::array<uint64_t, jit::kNumAbortReasons> abortReasons{};
    uint64_t tracesBlacklisted = 0;
    uint64_t tracesRearmed = 0;
    uint64_t tracesEvicted = 0;
    uint64_t compileDowngrades = 0;
    uint64_t liveTraces = 0; ///< registry slots still holding a trace
    bool faultsArmed = false;
    std::array<uint64_t, rt::kNumFaultSites> faultVisits{};
    std::array<uint64_t, rt::kNumFaultSites> faultFired{};

    // JIT-IR level (Figures 6-9).
    uint32_t irNodesCompiled = 0;
    std::vector<jit::IrNodeMeta> irNodeMeta;
    std::vector<uint64_t> irExecCounts;

    // AOT-call attribution (Table III).
    std::vector<xlayer::AotFunctionStats> aotFunctions;

    // Latency distributions (schema v6 latency section; always on —
    // host-side histograms of modeled cycles, invariant under every
    // fusion/sampling toggle, so they are golden-gated).
    common::Histogram iterationLatency; ///< back-edge to back-edge
    common::Histogram executionLength;  ///< trace entry to exit

    // Sampling profiler (empty unless profileIntervalCycles > 0).
    xlayer::SampleProfile profile;
    /** Guard sites with at least one failure (deopt attribution). */
    std::vector<DeoptSite> deoptSites;
    /** Per-trace code symbols for profile symbolization. */
    std::vector<TraceSymbol> traceSymbols;
};

/**
 * Run one workload on one VM configuration.
 * @throws std::invalid_argument for an unknown workload name or a VM
 *         kind this entry point cannot model (internal invariant
 *         violations still abort via XLVM_ASSERT).
 */
RunResult runWorkload(const RunOptions &opts);

/**
 * Run a CLBG workload's MiniRkt translation. VmKind::RacketLike models
 * the custom method-JIT VM with compiled-code-quality costs (RefInterp
 * flavor); VmKind::PycketJit runs MiniRkt on the meta-tracing framework.
 */
RunResult runRktWorkload(const RunOptions &opts);

} // namespace driver
} // namespace xlvm

#endif // XLVM_DRIVER_RUNNER_H
