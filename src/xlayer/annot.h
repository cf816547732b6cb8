/**
 * @file
 * Cross-layer annotation tag vocabulary.
 *
 * An annotation is a (tag, payload) pair carried by an annotation
 * instruction (BlockEmitter::annot, sim::Core::annot) — the analog of the paper's x86 `nop` with a unique address
 * serving as the tag. Annotations are *inserted* at higher layers
 * (application, interpreter dispatch loop, JIT framework, IR lowering) and
 * *collected* at the instruction layer by the AnnotationBus, the analog of
 * the custom PinTool.
 */

#ifndef XLVM_XLAYER_ANNOT_H
#define XLVM_XLAYER_ANNOT_H

#include <cstdint>
#include <iterator>
#include <string_view>

namespace xlvm {
namespace xlayer {

/**
 * Tag numbers are part of the trace-file format: a retired number is
 * never reused, so an old trace that carries one still loads (its
 * events show up under their numeric tag).
 */
enum AnnotTag : uint32_t
{
    /** Framework level: phase transitions. payload = Phase. */
    kPhaseEnter = 1,
    kPhaseExit = 2,

    /**
     * Interpreter level: beginning of one dispatch-loop iteration.
     * payload = opcode. This is the paper's unit of "work" that stays
     * valid across interpreter, tracing, and JIT execution.
     */
    kDispatch = 3,

    /** Framework level: JIT compilation lifecycle. payload = trace id. */
    kLoopCompiled = 4,
    kBridgeCompiled = 5,
    kTraceAborted = 6,

    /** Framework level: trace execution entry/exit. payload = trace id. */
    kTraceEnter = 7,
    kTraceLeave = 8,

    /** Framework level: deoptimization. payload = guard id. */
    kDeopt = 9,

    /** Framework level: GC events. payload = collection ordinal. */
    kGcMinor = 10,
    kGcMajor = 11,

    /**
     * Runtime level: AOT-compiled function entry/exit.
     * payload = AOT function id.
     */
    kAotEnter = 12,
    kAotExit = 13,

    /**
     * JIT-IR level: emitted when the lowered code of one IR node begins
     * executing. payload = global IR node id.
     */
    kIrNode = 14,

    /** Application level: user-defined event. payload = event id. */
    kAppEvent = 15,

    // Tags 16-18 are retired (former sim-layer replay telemetry).

    /**
     * Framework level: multi-tier JIT lifecycle. kTier1Compile marks a
     * baseline (unoptimized) compile — emitted alongside kLoopCompiled /
     * kBridgeCompiled, which keep meaning "a trace was registered".
     * kTierUp marks a tier-1 trace re-optimized in place to tier 2.
     * payload = trace id.
     */
    kTierUp = 19,
    kTier1Compile = 20,

    // Tags 21-22 are retired (former sim-layer replay telemetry).

    /**
     * Framework level: fault containment (schema v7). kTraceAborted
     * (tag 6) carries a jit::AbortReason as payload from v7 on.
     * kTraceBlacklisted marks a compiled trace demoted to the
     * interpreter after a deopt storm, kTraceRearmed its re-enable
     * after cooldown, kTraceEvicted a root (plus bridges) dropped
     * under trace-cache pressure, and kCompileDowngrade a compile
     * retried at tier 1 (budget cap, optimizer failure or injected
     * fault). payload = trace id.
     */
    kTraceBlacklisted = 23,
    kTraceRearmed = 24,
    kTraceEvicted = 25,
    kCompileDowngrade = 26,
};

/** Tags index 32-bit masks, so every live tag must stay below this. */
constexpr uint32_t kNumAnnotTagSlots = 32;

/** Tag-set membership bits of an AnnotTagInfo row. */
enum AnnotTagFlag : uint32_t
{
    /** Recorded by the event tracer by default (kDefaultTraceTagMask). */
    kTagTraced = 1u << 0,
    /** Snapshots the heap/code-cache gauges when traced. */
    kTagSampled = 1u << 1,
    /** Listed on the compile/deopt timeline of `xlvm-trace summarize`. */
    kTagTimeline = 1u << 2,
};

struct AnnotTagInfo
{
    AnnotTag tag;
    const char *name; ///< stable name used by trace files and tools
    uint32_t flags;   ///< AnnotTagFlag bits
};

/**
 * Every live tag. The per-dispatch and per-IR-node firehoses (kDispatch,
 * kIrNode) and the per-call AOT pair are not traced by default: the
 * aggregate instruments cover them and they would flush the trace ring
 * within milliseconds (opt in with --trace-tags).
 */
constexpr AnnotTagInfo kAnnotTags[] = {
    {kPhaseEnter, "phase_enter", kTagTraced},
    {kPhaseExit, "phase_exit", kTagTraced},
    {kDispatch, "dispatch", 0},
    {kLoopCompiled, "loop_compiled", kTagTraced | kTagSampled | kTagTimeline},
    {kBridgeCompiled, "bridge_compiled",
     kTagTraced | kTagSampled | kTagTimeline},
    {kTraceAborted, "trace_aborted", kTagTraced | kTagSampled | kTagTimeline},
    {kTraceEnter, "trace_enter", kTagTraced},
    {kTraceLeave, "trace_leave", kTagTraced},
    {kDeopt, "deopt", kTagTraced | kTagSampled | kTagTimeline},
    {kGcMinor, "gc_minor", kTagTraced | kTagSampled},
    {kGcMajor, "gc_major", kTagTraced | kTagSampled},
    {kAotEnter, "aot_enter", 0},
    {kAotExit, "aot_exit", 0},
    {kIrNode, "ir_node", 0},
    {kAppEvent, "app_event", kTagTraced},
    {kTierUp, "tier_up", kTagTraced | kTagSampled | kTagTimeline},
    {kTier1Compile, "tier1_compile", kTagTraced | kTagSampled | kTagTimeline},
    {kTraceBlacklisted, "trace_blacklisted", kTagTraced},
    {kTraceRearmed, "trace_rearmed", kTagTraced},
    {kTraceEvicted, "trace_evicted", kTagTraced},
    {kCompileDowngrade, "compile_downgrade", kTagTraced},
};

constexpr bool
annotTagsWellFormed()
{
    for (size_t i = 0; i < std::size(kAnnotTags); ++i) {
        if (kAnnotTags[i].tag >= kNumAnnotTagSlots)
            return false;
        for (size_t j = 0; j < i; ++j) {
            if (kAnnotTags[i].tag == kAnnotTags[j].tag ||
                std::string_view(kAnnotTags[i].name) == kAnnotTags[j].name)
                return false;
        }
    }
    return true;
}

static_assert(annotTagsWellFormed(),
              "annotation tags must be unique, below kNumAnnotTagSlots, "
              "and uniquely named");

/** Name of @p tag, or nullptr for a retired or unknown tag. */
constexpr const char *
annotTagName(uint32_t tag)
{
    for (const AnnotTagInfo &t : kAnnotTags) {
        if (t.tag == tag)
            return t.name;
    }
    return nullptr;
}

/** Mask (bit per tag) of the tags whose row carries @p flag. */
constexpr uint32_t
annotTagMask(uint32_t flag)
{
    uint32_t mask = 0;
    for (const AnnotTagInfo &t : kAnnotTags) {
        if (t.flags & flag)
            mask |= 1u << t.tag;
    }
    return mask;
}

/** True if @p tag is in @p mask; tags past the mask are in no set. */
constexpr bool
annotTagIn(uint32_t mask, uint32_t tag)
{
    return tag < kNumAnnotTagSlots && ((mask >> tag) & 1u);
}

} // namespace xlayer
} // namespace xlvm

#endif // XLVM_XLAYER_ANNOT_H
