/**
 * @file
 * AnnotationBus — the PinTool analog.
 *
 * The bus receives every annotation the core observes and routes it to
 * the analysis instruments it owns: phase breakdown, work-rate/warmup
 * tracking, AOT-call attribution, IR-node statistics and the event
 * tracer. It also counts every tag and the abort reasons carried by
 * kTraceAborted, which is all the framework-event totals need.
 */

#ifndef XLVM_XLAYER_BUS_H
#define XLVM_XLAYER_BUS_H

#include <cstdint>

#include "sim/core.h"
#include "xlayer/annot.h"
#include "xlayer/aot_profiler.h"
#include "xlayer/irnode_profiler.h"
#include "xlayer/phase_profiler.h"
#include "xlayer/tracer.h"
#include "xlayer/work_profiler.h"

namespace xlvm {
namespace xlayer {

class AnnotationBus : public sim::AnnotSink
{
  public:
    /** Per-reason kTraceAborted payload counts (jit::AbortReason). */
    static constexpr uint32_t kNumAbortReasons = 16;

    /**
     * @param timeline_bin       phase-timeline bin width (0 = off)
     * @param work_sample_instrs warmup-curve sample interval
     * @param tracer_opts        event-tracer options (capacity 0 = off)
     */
    explicit AnnotationBus(sim::Core &core, uint64_t timeline_bin = 0,
                           uint64_t work_sample_instrs = 100000,
                           const TracerOptions &tracer_opts = {})
        : phases(core, timeline_bin),
          work(core, work_sample_instrs),
          aot(core),
          tracer(core, tracer_opts)
    {
        core.setAnnotSink(this);
    }

    /** The core holds this bus's address. */
    AnnotationBus(const AnnotationBus &) = delete;
    AnnotationBus &operator=(const AnnotationBus &) = delete;

    /**
     * Route one annotation. The order is part of the contract: the
     * phase stack moves first, so the timeline bin check and the
     * tracer see the bucket in effect *after* a phase transition.
     */
    void
    onAnnot(uint32_t tag, uint32_t payload) override
    {
        switch (tag) {
          case kPhaseEnter:
            phases.enter(payload);
            break;
          case kPhaseExit:
            phases.exit(payload);
            break;
          case kDispatch:
            work.dispatch(payload);
            break;
          case kAotEnter:
            aot.enter(payload);
            break;
          case kAotExit:
            aot.exit(payload);
            break;
          case kIrNode:
            ir.node(payload);
            break;
          case kTraceAborted:
            // payload is a jit::AbortReason; unknown values land in
            // slot 0 ("none") so older streams still aggregate.
            ++abortReasons[payload < kNumAbortReasons ? payload : 0];
            break;
          default:
            break;
        }
        phases.maybeCloseBin();
        if (tag < kNumAnnotTagSlots)
            ++counts_[tag];
        if (tracer.enabled())
            tracer.record(tag, payload);
    }

    /** Annotations seen with @p tag (0 for a tag past the slots). */
    uint64_t
    count(uint32_t tag) const
    {
        return tag < kNumAnnotTagSlots ? counts_[tag] : 0;
    }

    PhaseProfiler phases;
    WorkRateProfiler work;
    AotCallProfiler aot;
    IrNodeProfiler ir;
    EventTracer tracer;
    uint64_t abortReasons[kNumAbortReasons] = {};

  private:
    uint64_t counts_[kNumAnnotTagSlots] = {};
};

} // namespace xlayer
} // namespace xlvm

#endif // XLVM_XLAYER_BUS_H
