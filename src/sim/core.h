/**
 * @file
 * The modeled processor core.
 *
 * xlvm is execution-driven: every layer of the modeled VM stack (reference
 * interpreter, RPython-style translated interpreter, meta-interpreter,
 * JIT-compiled traces, AOT runtime functions, the garbage collector)
 * emits its dynamic instruction stream into Core through BlockEmitter
 * (sim/emitter.h), one typed entry point per instruction class. Core
 * plays the role of the paper's real hardware: it drives the branch
 * predictors and L1 caches, charges cycles with a simple issue-width +
 * penalty model, and maintains per-bucket performance counters. Buckets
 * correspond to the paper's execution phases (interpreter / tracing / JIT
 * / JIT-call / GC / blackhole); the instrumentation layer switches the
 * active bucket when it intercepts phase annotations, which is exactly how
 * the paper's PinTool + PAPI combination attributes counters to phases.
 *
 * annot() is the cross-layer annotation instruction, the analog of the
 * paper's tagged x86 `nop`: it does not change "program" behaviour but is
 * observed by the instrumentation layer (xlayer::AnnotationBus), exactly
 * like the paper's PinTool observing nops.
 */

#ifndef XLVM_SIM_CORE_H
#define XLVM_SIM_CORE_H

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>

#include "sim/addr_map.h"
#include "sim/branch_pred.h"
#include "sim/cache.h"

namespace xlvm {
namespace sim {

/**
 * An object that keeps its own synthetic data-address slot in its header
 * (gc::GcObject). The core reaches it through this shape alone, so sim
 * does not depend on gc.
 */
template <typename T>
concept HasDataAddrSlot = requires(const T &o) {
    { o.dataAddrSlot() } -> std::same_as<uint32_t &>;
};

/** Fixed-point cycle units: 1/16 of a cycle. */
constexpr uint64_t kCycleFp = 16;

/** Execute cycles beyond the issue slot, per instruction class. */
constexpr uint64_t kMulCostFp = 2 * kCycleFp;
constexpr uint64_t kDivCostFp = 18 * kCycleFp;
constexpr uint64_t kFpAluCostFp = 1 * kCycleFp;
constexpr uint64_t kFpMulCostFp = 2 * kCycleFp;
constexpr uint64_t kFpDivCostFp = 12 * kCycleFp;

struct CoreParams
{
    uint32_t issueWidth = 4;
    uint32_t mispredictPenalty = 14; ///< cycles
    uint32_t icacheMissPenalty = 8;  ///< cycles (partially overlapped)
    uint32_t dcacheMissPenalty = 10; ///< cycles (partially overlapped)
    /**
     * Cycle cost charged per annotation, in kCycleFp units. Defaults to 0
     * (ideal instrumentation); the perturbation ablation bench raises it
     * to model real tagged nops occupying issue slots.
     */
    uint32_t annotCostFp = 0;
    double frequencyGhz = 3.0;
    /**
     * Inert: the frozen host benchmark (hostbench/) still sets these, so
     * they stay until the next benchmark revision drops them. The core
     * has a single stepping path and ignores both.
     */
    bool simMemo = true;
    bool simSuperblock = true;
    BranchPredParams branchPred;
    CacheParams icache;
    CacheParams dcache;
};

/** One bucket of performance counters (the PAPI analog). */
struct PerfCounters
{
    uint64_t instructions = 0;
    uint64_t cyclesFp = 0; ///< in kCycleFp units
    uint64_t branches = 0; ///< all control-flow instructions
    uint64_t condBranches = 0;
    uint64_t mispredicts = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t icacheMisses = 0;
    uint64_t dcacheMisses = 0;
    uint64_t annotations = 0;

    double cycles() const { return double(cyclesFp) / kCycleFp; }

    double
    ipc() const
    {
        return cyclesFp ? double(instructions) * kCycleFp / cyclesFp : 0.0;
    }

    /** Branch mispredictions per 1000 instructions. */
    double
    mpki() const
    {
        return instructions ? 1000.0 * mispredicts / instructions : 0.0;
    }

    double
    branchRate() const
    {
        return instructions ? double(branches) / instructions : 0.0;
    }

    double
    branchMissRate() const
    {
        return branches ? double(mispredicts) / branches : 0.0;
    }

    void
    accumulate(const PerfCounters &o)
    {
        instructions += o.instructions;
        cyclesFp += o.cyclesFp;
        branches += o.branches;
        condBranches += o.condBranches;
        mispredicts += o.mispredicts;
        loads += o.loads;
        stores += o.stores;
        icacheMisses += o.icacheMisses;
        dcacheMisses += o.dcacheMisses;
        annotations += o.annotations;
    }
};

/** Interface through which the core hands annotations to instrumentation. */
class AnnotSink
{
  public:
    virtual ~AnnotSink() = default;
    virtual void onAnnot(uint32_t tag, uint32_t payload) = 0;
};

/** Maximum number of counter buckets (phases). */
constexpr uint32_t kMaxBuckets = 16;

// ---- deterministic cycle sampling --------------------------------------
//
// The sampling profiler's clock is the modeled cycle counter itself:
// a sample fires every N modeled cycles (kCycleFp fixed-point units),
// never on wall-clock time, so a run's sample stream is bit-identical
// across --jobs values, processes, and hosts. Samples are pure
// host-side observation — no instruction is emitted, no counter moves —
// so modeled counters are bit-identical with the sampler on or off.

/**
 * Execution-context word attached to every sample. The VM layers mark
 * transitions (trace entry/exit, GC, compilation) with one packed store;
 * the core treats the word as opaque and stamps it into samples. Packing
 * lives here so sim, vm, and xlayer agree without a cross-layer header.
 */
enum class SampleCtxKind : uint32_t
{
    Interp = 0,  ///< interpreter / anything not otherwise marked
    Trace = 1,   ///< executing a compiled loop trace (id = trace id)
    Bridge = 2,  ///< executing a compiled bridge trace (id = trace id)
    Gc = 3,      ///< inside a collection (id = collection ordinal)
    Compile = 4, ///< modeled compilation work (id = trace id)
};

constexpr uint64_t
sampleCtxPack(SampleCtxKind kind, uint32_t tier, uint32_t id)
{
    return (uint64_t(kind) << 40) | (uint64_t(tier & 0xff) << 32) |
           uint64_t(id);
}

constexpr SampleCtxKind
sampleCtxKind(uint64_t ctx)
{
    return SampleCtxKind((ctx >> 40) & 0xff);
}

constexpr uint32_t
sampleCtxTier(uint64_t ctx)
{
    return uint32_t(ctx >> 32) & 0xff;
}

constexpr uint32_t
sampleCtxId(uint64_t ctx)
{
    return uint32_t(ctx);
}

/** Interface through which the core delivers cycle samples. */
class CycleSampleSink
{
  public:
    virtual ~CycleSampleSink() = default;

    /**
     * One sample. @p clock_fp is the sample point on the modeled cycle
     * clock (cumulative charged cycles since arming, kCycleFp units);
     * @p bucket is the active counter bucket (== the current phase);
     * @p pc is the modeled pc of the charge that crossed the sample
     * point (a trace code address inside JIT code, symbolizable against
     * the trace registry); @p ctx is the packed execution-context word.
     */
    virtual void onCycleSample(uint64_t clock_fp, uint32_t bucket,
                               uint64_t pc, uint64_t ctx) = 0;
};

class Core
{
  public:
    explicit Core(const CoreParams &p = CoreParams());

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    // ---- typed entry points (hot path) ------------------------------
    //
    // One entry per instruction class, each called by its BlockEmitter
    // method with the instruction's pc. load() through single() fetch
    // one instruction through fetch() and charge it through retire();
    // consumeStraight() batches its fetches per icache line, and annot()
    // fetches nothing. Control entries go straight to their predictor.

    /** Memory read of @p addr with @p extra_lat dependence stalls. */
    void
    load(uint64_t pc, uint64_t addr, uint8_t extra_lat = 0)
    {
        PerfCounters &c = buckets[bucket];
        uint64_t cost = fetch(c, pc) + uint64_t(extra_lat) * kCycleFp;
        ++c.loads;
        if (!dcache.access(addr)) {
            ++c.dcacheMisses;
            cost += params.dcacheMissPenalty * kCycleFp;
        }
        retire(c, cost, pc);
    }

    /** Memory write of @p addr (write-allocate; latency hidden). */
    void
    store(uint64_t pc, uint64_t addr)
    {
        PerfCounters &c = buckets[bucket];
        uint64_t cost = fetch(c, pc);
        ++c.stores;
        if (!dcache.access(addr))
            ++c.dcacheMisses;
        retire(c, cost, pc);
    }

    /** Conditional direct branch (gshare). */
    void
    branch(uint64_t pc, bool taken)
    {
        PerfCounters &c = buckets[bucket];
        uint64_t cost = fetch(c, pc);
        ++c.branches;
        ++c.condBranches;
        if (!gshare.predictAndUpdate(pc, taken))
            mispredict(c, cost);
        retire(c, cost, pc);
    }

    /** Unconditional direct jump: always predicted once decoded. */
    void
    jump(uint64_t pc)
    {
        PerfCounters &c = buckets[bucket];
        uint64_t cost = fetch(c, pc);
        ++c.branches;
        retire(c, cost, pc);
    }

    /** Direct call: pushes its return address on the RAS. */
    void
    call(uint64_t pc)
    {
        PerfCounters &c = buckets[bucket];
        uint64_t cost = fetch(c, pc);
        ++c.branches;
        ras.pushCall(pc + 4);
        retire(c, cost, pc);
    }

    /** Computed jump, or call when @p is_call, to @p target (BTB). */
    void
    indirect(uint64_t pc, uint64_t target, bool is_call)
    {
        PerfCounters &c = buckets[bucket];
        uint64_t cost = fetch(c, pc);
        ++c.branches;
        if (is_call)
            ras.pushCall(pc + 4);
        if (!btb.predictAndUpdate(pc, target, gshare.history()))
            mispredict(c, cost);
        retire(c, cost, pc);
    }

    /** Return to @p return_pc, checked against the RAS prediction. */
    void
    ret(uint64_t pc, uint64_t return_pc)
    {
        PerfCounters &c = buckets[bucket];
        uint64_t cost = fetch(c, pc);
        ++c.branches;
        if (!ras.predictReturn(return_pc))
            mispredict(c, cost);
        retire(c, cost, pc);
    }

    /**
     * One non-memory, non-control instruction (mul, div, fp, nop) with
     * @p extra_fp execute cycles beyond its issue slot (a k*CostFp).
     */
    void
    single(uint64_t pc, uint64_t extra_fp)
    {
        PerfCounters &c = buckets[bucket];
        retire(c, fetch(c, pc) + extra_fp, pc);
    }

    /**
     * Cross-layer annotation: metadata, not a retired instruction. It is
     * not fetched and charges only annotCostFp (0 by default), so it does
     * not perturb the counters it is used to collect.
     */
    void
    annot(uint64_t pc, uint32_t tag, uint32_t payload)
    {
        PerfCounters &c = buckets[bucket];
        ++c.annotations;
        c.cyclesFp += params.annotCostFp;
        if (sampleIntervalFp_ != 0)
            sampleTick(params.annotCostFp, pc);
        if (sink)
            sink->onAnnot(tag, payload);
    }

    /**
     * Consume @p n consecutive non-memory, non-control instructions
     * starting at @p start_pc (4-byte spacing), each with @p extra_fp
     * execute cycles beyond its issue slot. Counters and cache/LRU state
     * are bit-identical to emitting them one by one through single(); the
     * icache probes are batched per line through Cache::accessN.
     */
    void
    consumeStraight(uint64_t start_pc, uint32_t n, uint64_t extra_fp = 0)
    {
        if (n == 0)
            return;
        PerfCounters &c = buckets[bucket];
        c.instructions += n;
        uint64_t cost = uint64_t(n) * (issueCostFp + extra_fp);
        const uint64_t lineMask = icache.lineBytes() - 1;
        uint64_t p = start_pc;
        const uint64_t end = start_pc + 4ull * n;
        while (p < end) {
            const uint64_t lineEnd = (p | lineMask) + 1;
            const uint32_t k = uint32_t((std::min(lineEnd, end) - p) / 4);
            if (!icache.accessN(p, k)) {
                ++c.icacheMisses;
                cost += params.icacheMissPenalty * kCycleFp;
            }
            p += 4ull * k;
        }
        retire(c, cost, start_pc);
    }

    /** Translate a host pointer to its deterministic simulated address. */
    uint64_t dataAddr(const void *p) { return dataSpace.translate(p); }

    /**
     * A GC object's address comes from the slot in its header. A null
     * pointer has no header and takes the map's route.
     */
    template <HasDataAddrSlot T>
    uint64_t
    dataAddr(const T *p)
    {
        return p ? dataSpace.translateSlot(p->dataAddrSlot())
                 : dataSpace.translate(p);
    }

    /** Select which counter bucket subsequent instructions charge. */
    void
    setBucket(uint32_t b)
    {
        b = b < kMaxBuckets ? b : 0;
        otherInstructions += buckets[bucket].instructions;
        otherInstructions -= buckets[b].instructions;
        otherCyclesFp += buckets[bucket].cyclesFp;
        otherCyclesFp -= buckets[b].cyclesFp;
        bucket = b;
    }
    uint32_t currentBucket() const { return bucket; }

    void setAnnotSink(AnnotSink *s) { sink = s; }

    /**
     * Arm the cycle sampler: deliver one sample to @p s every
     * @p interval_fp modeled cycles (kCycleFp units) of charged cost.
     * @p interval_fp == 0 (or a null sink) disarms; the hot-path cost of
     * a disarmed sampler is one always-false compare per charge. Arming
     * resets the sample clock to zero. Sampling is pure observation: no
     * modeled counter moves, so counters are bit-identical armed or not.
     */
    void armSampler(CycleSampleSink *s, uint64_t interval_fp);

    bool samplerArmed() const { return sampleIntervalFp_ != 0; }

    /** Modeled cycles charged since arming, kCycleFp units. */
    uint64_t sampleClockFp() const { return sampleClockFp_; }

    /**
     * Set the packed execution-context word stamped into samples (see
     * sampleCtxPack). One store; callers mark transitions unconditionally
     * — it is cheap enough to leave on when the sampler is off.
     */
    void setProfileContext(uint64_t ctx) { sampleCtx_ = ctx; }
    uint64_t profileContext() const { return sampleCtx_; }

    const PerfCounters &bucketCounters(uint32_t b) const;

    /** Read-only view of the L1 caches (hit/miss counters for reports). */
    const Cache &icacheUnit() const { return icache; }
    const Cache &dcacheUnit() const { return dcache; }

    /** Sum of all buckets. */
    PerfCounters totalCounters() const;

    /** Instructions of all buckets; O(1) (budget checks call it often). */
    uint64_t
    totalInstructions() const
    {
        return otherInstructions + buckets[bucket].instructions;
    }

    /** Exact whole-run cycle count in kCycleFp units (all buckets); O(1). */
    uint64_t
    totalCyclesFp() const
    {
        return otherCyclesFp + buckets[bucket].cyclesFp;
    }

    double totalCycles() const;

    /** Simulated wall-clock seconds at the configured frequency. */
    double seconds() const;

    /**
     * Reset every stat source to its freshly constructed state: counter
     * buckets, both caches (counters, contents, and LRU clocks), and the
     * predictors' learned state (gshare, BTB, RAS). Replaying an identical instruction
     * stream after resetStats() yields bit-identical counters. The data
     * address map survives — it is an address-space property, not a
     * statistic.
     */
    void resetStats();

    const CoreParams &coreParams() const { return params; }

  private:
    /**
     * Advance the sample clock by a just-charged cost and fire any
     * samples it crossed. Call sites gate on sampleIntervalFp_ != 0 so
     * the disarmed cost is a single compare. @p pc is the modeled pc the
     * crossing charge is attributed to; a batched straight run
     * attributes its whole delta to the run's first pc.
     */
    void
    sampleTick(uint64_t delta_fp, uint64_t pc)
    {
        sampleClockFp_ += delta_fp;
        if (sampleClockFp_ >= nextSampleFp_)
            sampleFire(pc);
    }

    /** Out-of-line sample delivery loop (rare). */
    void sampleFire(uint64_t pc);

    /**
     * Fetch stage shared by every retired instruction: count it in @p c
     * and probe the icache at @p pc. Returns the instruction's issue
     * cost plus any icache-miss penalty.
     */
    uint64_t
    fetch(PerfCounters &c, uint64_t pc)
    {
        ++c.instructions;
        uint64_t cost = issueCostFp;
        if (!icache.access(pc)) {
            ++c.icacheMisses;
            cost += params.icacheMissPenalty * kCycleFp;
        }
        return cost;
    }

    void
    mispredict(PerfCounters &c, uint64_t &cost)
    {
        ++c.mispredicts;
        cost += params.mispredictPenalty * kCycleFp;
    }

    /** Retire stage: charge @p cost and advance the sample clock. */
    void
    retire(PerfCounters &c, uint64_t cost, uint64_t pc)
    {
        c.cyclesFp += cost;
        if (sampleIntervalFp_ != 0)
            sampleTick(cost, pc);
    }

    CoreParams params;
    uint64_t issueCostFp;
    GsharePredictor gshare;
    IndirectPredictor btb;
    ReturnStack ras;
    Cache icache;
    Cache dcache;
    DataAddrSpace dataSpace;
    AnnotSink *sink = nullptr;
    uint32_t bucket = 0;
    std::array<PerfCounters, kMaxBuckets> buckets;
    /** Sums over every bucket but the current one, kept by setBucket. */
    uint64_t otherInstructions = 0;
    uint64_t otherCyclesFp = 0;
    /** Cycle-sampler state; interval 0 = disarmed (hot-path gate). */
    CycleSampleSink *sampleSink_ = nullptr;
    uint64_t sampleIntervalFp_ = 0;
    uint64_t sampleClockFp_ = 0;
    uint64_t nextSampleFp_ = UINT64_MAX;
    uint64_t sampleCtx_ = 0;
};

} // namespace sim
} // namespace xlvm

#endif // XLVM_SIM_CORE_H
