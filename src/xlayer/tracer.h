/**
 * @file
 * Streaming cross-layer event tracer.
 *
 * The aggregate profilers (phase/work/IR and the bus's per-tag counts)
 * keep lossy summaries; the tracer is the complementary instrument: the
 * AnnotationBus hands it every annotation and it appends one fixed-size
 * binary record per recorded one — simulated-cycle timestamp, tag,
 * payload, active phase, run id — into a chunked in-memory ring buffer.
 * This is the analog of the paper's PinTool event stream: after a run
 * the full event sequence can be replayed, filtered, summarized, or
 * exported as a Chrome trace-event file (see report/trace_export.h and
 * tools/xlvm-trace).
 *
 * Overhead discipline:
 *  - Disabled (capacityEvents == 0): the bus tests enabled() and never
 *    calls in, so the annotation hot path pays one predictable branch.
 *  - Enabled: one tag-mask test, one O(buckets) timestamp read, and one
 *    store into a pre-decoded ring slot. No allocation after a chunk is
 *    first touched, no I/O during the run.
 *
 * Ring semantics: the buffer holds the most recent capacityEvents
 * records. When full it wraps and overwrites the oldest records, each
 * overwrite counted in droppedEvents() — so long runs keep the tail of
 * the timeline (where the interesting deopt/GC usually is) and the drop
 * counter tells you exactly how much head was lost. Raise the capacity
 * (--trace-buffer-events in the bench harness) to keep more.
 */

#ifndef XLVM_XLAYER_TRACER_H
#define XLVM_XLAYER_TRACER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/core.h"
#include "xlayer/annot.h"

namespace xlvm {
namespace xlayer {

/** One streamed event record (fixed 24-byte binary layout). */
struct TraceRecord
{
    uint64_t cyclesFp;  ///< simulated timestamp, sim::kCycleFp units
    uint32_t tag;       ///< AnnotTag
    uint32_t payload;   ///< tag-specific payload (trace/guard/phase id)
    uint8_t phase;      ///< counter bucket in effect *after* the event
    uint8_t runId;      ///< run identity within a sweep
    uint16_t reserved0; ///< zero; explicit so the layout is fully pinned
    uint32_t reserved1; ///< zero (tail padding made explicit)
};

static_assert(sizeof(TraceRecord) == 24,
              "TraceRecord must stay a fixed 24-byte record");

/** Cross-layer gauge sample attached to framework events. */
struct TraceCounterSample
{
    uint64_t cyclesFp;        ///< simulated timestamp, kCycleFp units
    uint64_t heapBytes;       ///< live young+old heap bytes
    uint64_t traceCacheBytes; ///< JIT code-arena bytes emitted so far
};

/** Bit for @p tag in a tag mask; 0 for a tag past the mask. */
constexpr uint32_t
traceTagBit(uint32_t tag)
{
    return tag < kNumAnnotTagSlots ? 1u << tag : 0u;
}

/** Default recording mask: the kTagTraced rows of kAnnotTags. */
constexpr uint32_t kDefaultTraceTagMask = annotTagMask(kTagTraced);

/** Tags that additionally snapshot the cross-layer counter gauges. */
constexpr uint32_t kCounterSampleTagMask = annotTagMask(kTagSampled);

struct TracerOptions
{
    /** Ring capacity in events; 0 disables the tracer entirely. */
    uint64_t capacityEvents = 0;
    /** Which AnnotTags to record (bit per tag). */
    uint32_t tagMask = kDefaultTraceTagMask;
    /** Run identity stamped into every record. */
    uint8_t runId = 0;
};

/**
 * One run's trace, moved out of the tracer when the run completes
 * (EventTracer::take). Events are ordered oldest-to-newest; when the
 * ring wrapped, droppedEvents records were overwritten at the head.
 */
struct TraceLog
{
    std::vector<TraceRecord> events;
    std::vector<TraceCounterSample> counters;
    uint64_t recordedEvents = 0; ///< total ever recorded (incl. dropped)
    uint64_t droppedEvents = 0;  ///< overwritten by ring wraparound
    uint64_t droppedCounters = 0;
    uint64_t capacityEvents = 0;
};

class EventTracer
{
  public:
    /** Records are grouped into lazily allocated chunks of this size. */
    static constexpr size_t kChunkEvents = 4096;

    EventTracer(sim::Core &core, const TracerOptions &opts);

    /** Record one annotation if enabled and its tag is in the mask. */
    void record(uint32_t tag, uint32_t payload);

    bool enabled() const { return capacity_ != 0; }
    uint64_t capacityEvents() const { return capacity_; }

    /** Total events ever recorded, including overwritten ones. */
    uint64_t recordedEvents() const { return total_; }

    /** Events lost to ring wraparound. */
    uint64_t
    droppedEvents() const
    {
        return total_ > capacity_ ? total_ - capacity_ : 0;
    }

    /** Live records currently held (<= capacityEvents). */
    size_t
    size() const
    {
        return size_t(total_ > capacity_ ? capacity_ : total_);
    }

    /** Live record @p i, 0 = oldest surviving event. */
    const TraceRecord &at(size_t i) const;

    const std::vector<TraceCounterSample> &
    counterSamples() const
    {
        return counters_;
    }

    uint64_t droppedCounterSamples() const { return droppedCounters_; }

    /**
     * Install the gauge snapshot callback invoked for tags in
     * kCounterSampleTagMask (cyclesFp is filled in by the tracer).
     */
    void
    setCounterSampler(std::function<TraceCounterSample()> sampler)
    {
        sampler_ = std::move(sampler);
    }

    /** Move the whole trace out (oldest-first) and reset the ring;
     *  events recorded afterwards start a fresh buffer. */
    TraceLog take();

  private:
    using Chunk = std::unique_ptr<TraceRecord[]>;

    sim::Core &core_;
    uint64_t capacity_;
    uint32_t tagMask_;
    uint8_t runId_;
    uint64_t total_ = 0; ///< events ever recorded
    std::vector<Chunk> chunks_;
    std::vector<TraceCounterSample> counters_;
    uint64_t droppedCounters_ = 0;
    std::function<TraceCounterSample()> sampler_;
};

} // namespace xlayer
} // namespace xlvm

#endif // XLVM_XLAYER_TRACER_H
