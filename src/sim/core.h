/**
 * @file
 * The modeled processor core.
 *
 * Core consumes the dynamic instruction stream emitted by the VM layers
 * and plays the role of the paper's real hardware: it drives the branch
 * predictors and L1 caches, charges cycles with a simple issue-width +
 * penalty model, and maintains per-bucket performance counters. Buckets
 * correspond to the paper's execution phases (interpreter / tracing / JIT
 * / JIT-call / GC / blackhole); the instrumentation layer switches the
 * active bucket when it intercepts phase annotations, which is exactly how
 * the paper's PinTool + PAPI combination attributes counters to phases.
 */

#ifndef XLVM_SIM_CORE_H
#define XLVM_SIM_CORE_H

#include <algorithm>
#include <array>
#include <cstdint>

#include "sim/addr_map.h"
#include "sim/branch_pred.h"
#include "sim/cache.h"
#include "sim/inst.h"

namespace xlvm {
namespace sim {

/** Fixed-point cycle units: 1/16 of a cycle. */
constexpr uint64_t kCycleFp = 16;

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

    /** Consume one dynamic instruction (hot path). */
    void
    consume(const Inst &inst)
    {
        PerfCounters &pc = buckets[bucket];

        if (inst.cls == InstClass::Annot) {
            // Annotations are metadata: by default they do not perturb
            // the counters they are used to collect (see annotCostFp).
            ++pc.annotations;
            pc.cyclesFp += params.annotCostFp;
            if (sampleIntervalFp_ != 0)
                sampleTick(params.annotCostFp, inst.pc);
            if (sink)
                sink->onAnnot(annotTag(inst.target),
                              annotPayload(inst.target));
            return;
        }

        ++pc.instructions;
        uint64_t cost = issueCostFp;

        if (!icache.access(inst.pc)) {
            ++pc.icacheMisses;
            cost += params.icacheMissPenalty * kCycleFp;
        }
        cost += uint64_t(inst.extraLat) * kCycleFp;

        // Plain ALU ops dominate every instruction mix; retire them
        // without touching the class switch or the control-flow checks.
        if (inst.cls == InstClass::IntAlu || inst.cls == InstClass::Nop) {
            pc.cyclesFp += cost;
            if (sampleIntervalFp_ != 0)
                sampleTick(cost, inst.pc);
            return;
        }

        switch (inst.cls) {
          case InstClass::Load:
            ++pc.loads;
            if (!dcache.access(inst.memAddr)) {
                ++pc.dcacheMisses;
                cost += params.dcacheMissPenalty * kCycleFp;
            }
            break;
          case InstClass::Store:
            ++pc.stores;
            if (!dcache.access(inst.memAddr))
                ++pc.dcacheMisses; // write-allocate; latency hidden
            break;
          case InstClass::IntMul:
            cost += 2 * kCycleFp;
            break;
          case InstClass::IntDiv:
            cost += 18 * kCycleFp;
            break;
          case InstClass::FpAlu:
            cost += 1 * kCycleFp;
            break;
          case InstClass::FpMul:
            cost += 2 * kCycleFp;
            break;
          case InstClass::FpDiv:
            cost += 12 * kCycleFp;
            break;
          default:
            break;
        }

        if (isControl(inst.cls)) {
            ++pc.branches;
            if (inst.cls == InstClass::Branch)
                ++pc.condBranches;
            if (branchUnit.process(inst)) {
                ++pc.mispredicts;
                cost += params.mispredictPenalty * kCycleFp;
            }
        }

        pc.cyclesFp += cost;
        if (sampleIntervalFp_ != 0)
            sampleTick(cost, inst.pc);
    }

    /**
     * Consume @p n consecutive instructions of one arithmetic class
     * starting at @p start_pc (4-byte spacing). Counters and cache/LRU
     * state are bit-identical to emitting the instructions one by one;
     * the per-instruction call and icache probes are amortized by
     * batching same-line fetches through Cache::accessN. @p cls must be
     * a non-memory, non-control class.
     */
    void
    consumeStraight(InstClass cls, uint64_t start_pc, uint32_t n,
                    uint8_t extra_lat = 0)
    {
        if (n == 0)
            return;
        PerfCounters &pc = buckets[bucket];
        pc.instructions += n;
        uint64_t cost =
            uint64_t(n) * (issueCostFp + uint64_t(extra_lat) * kCycleFp +
                           classCostFp(cls));
        const uint64_t lineBytes = icache.lineBytes();
        uint64_t p = start_pc;
        uint64_t end = start_pc + 4ull * n;
        while (p < end) {
            uint64_t lineEnd = (p / lineBytes + 1) * lineBytes;
            uint32_t k = uint32_t((std::min(lineEnd, end) - p) / 4);
            if (!icache.accessN(p, k)) {
                ++pc.icacheMisses;
                cost += params.icacheMissPenalty * kCycleFp;
            }
            p += 4ull * k;
        }
        pc.cyclesFp += cost;
        if (sampleIntervalFp_ != 0)
            sampleTick(cost, start_pc);
    }

    /** Translate a host pointer to its deterministic simulated address. */
    uint64_t dataAddr(const void *p) { return dataSpace.translate(p); }

    /** Forget a host pointer whose memory is being freed (GC). */
    void releaseDataAddr(const void *p) { dataSpace.release(p); }

    /** Select which counter bucket subsequent instructions charge. */
    void setBucket(uint32_t b) { bucket = b < kMaxBuckets ? b : 0; }
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

    uint64_t totalInstructions() const;
    /** Exact whole-run cycle count in kCycleFp units (all buckets). */
    uint64_t totalCyclesFp() const;
    double totalCycles() const;

    /** Simulated wall-clock seconds at the configured frequency. */
    double seconds() const;

    /**
     * Reset every stat source to its freshly constructed state: counter
     * buckets, both caches (counters, contents, and LRU clocks), and the
     * branch unit's learned state. Replaying an identical instruction
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

    /** Fixed extra cycles of a non-memory, non-control class, in fp units. */
    static uint64_t
    classCostFp(InstClass cls)
    {
        switch (cls) {
          case InstClass::IntMul:
          case InstClass::FpMul:
            return 2 * kCycleFp;
          case InstClass::IntDiv:
            return 18 * kCycleFp;
          case InstClass::FpAlu:
            return 1 * kCycleFp;
          case InstClass::FpDiv:
            return 12 * kCycleFp;
          default:
            return 0;
        }
    }

    CoreParams params;
    uint64_t issueCostFp;
    BranchUnit branchUnit;
    Cache icache;
    Cache dcache;
    DataAddrSpace dataSpace;
    AnnotSink *sink = nullptr;
    uint32_t bucket = 0;
    std::array<PerfCounters, kMaxBuckets> buckets;
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
