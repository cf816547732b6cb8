/**
 * @file
 * Framework-event profiler: counts of JIT and GC lifecycle events.
 */

#ifndef XLVM_XLAYER_EVENT_PROFILER_H
#define XLVM_XLAYER_EVENT_PROFILER_H

#include <cstdint>

#include "xlayer/bus.h"

namespace xlvm {
namespace xlayer {

class EventProfiler : public AnnotListener
{
  public:
    explicit EventProfiler(AnnotationBus &bus);
    ~EventProfiler() override;

    void onAnnot(uint32_t tag, uint32_t payload) override;

    uint64_t loopsCompiled = 0;
    uint64_t bridgesCompiled = 0;
    uint64_t tracesAborted = 0;
    uint64_t traceEnters = 0;
    uint64_t deopts = 0;
    uint64_t gcMinor = 0;
    uint64_t gcMajor = 0;
    uint64_t appEvents = 0;
    uint64_t tierUps = 0;
    uint64_t tier1Compiles = 0;

    /** Fault-containment events (schema v7). */
    uint64_t tracesBlacklisted = 0;
    uint64_t tracesRearmed = 0;
    uint64_t tracesEvicted = 0;
    uint64_t compileDowngrades = 0;
    /** Per-reason kTraceAborted payload counts (jit::AbortReason). */
    static constexpr uint32_t kNumAbortReasons = 16;
    uint64_t abortReasons[kNumAbortReasons] = {};

  private:
    AnnotationBus &bus_;
};

} // namespace xlayer
} // namespace xlvm

#endif // XLVM_XLAYER_EVENT_PROFILER_H
