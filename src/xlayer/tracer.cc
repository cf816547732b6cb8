#include "xlayer/tracer.h"

#include "common/logging.h"

namespace xlvm {
namespace xlayer {

EventTracer::EventTracer(sim::Core &core, const TracerOptions &opts)
    : core_(core),
      capacity_(opts.capacityEvents),
      tagMask_(opts.tagMask),
      runId_(opts.runId)
{
    chunks_.reserve(size_t((capacity_ + kChunkEvents - 1) / kChunkEvents));
}

void
EventTracer::record(uint32_t tag, uint32_t payload)
{
    if (capacity_ == 0 || !annotTagIn(tagMask_, tag))
        return;

    const uint64_t cyclesFp = core_.totalCyclesFp();

    uint64_t slot = total_ % capacity_;
    size_t chunkIdx = size_t(slot / kChunkEvents);
    if (chunkIdx >= chunks_.size()) {
        chunks_.resize(chunkIdx + 1);
        chunks_[chunkIdx] = Chunk(new TraceRecord[kChunkEvents]);
    }
    TraceRecord &r = chunks_[chunkIdx][slot % kChunkEvents];
    r.cyclesFp = cyclesFp;
    r.tag = tag;
    r.payload = payload;
    r.phase = uint8_t(core_.currentBucket());
    r.runId = runId_;
    r.reserved0 = 0;
    r.reserved1 = 0;
    ++total_;

    if (sampler_ && annotTagIn(kCounterSampleTagMask, tag)) {
        if (counters_.size() < capacity_) {
            TraceCounterSample s = sampler_();
            s.cyclesFp = cyclesFp;
            counters_.push_back(s);
        } else {
            ++droppedCounters_;
        }
    }
}

const TraceRecord &
EventTracer::at(size_t i) const
{
    XLVM_ASSERT(i < size(), "trace record index out of range");
    uint64_t first = total_ > capacity_ ? total_ - capacity_ : 0;
    uint64_t slot = (first + i) % capacity_;
    return chunks_[size_t(slot / kChunkEvents)][slot % kChunkEvents];
}

TraceLog
EventTracer::take()
{
    TraceLog log;
    log.recordedEvents = total_;
    log.droppedEvents = droppedEvents();
    log.droppedCounters = droppedCounters_;
    log.capacityEvents = capacity_;
    log.events.reserve(size());
    for (size_t i = 0; i < size(); ++i)
        log.events.push_back(at(i));
    log.counters = std::move(counters_);
    counters_.clear();
    total_ = 0;
    droppedCounters_ = 0;
    return log;
}

} // namespace xlayer
} // namespace xlvm
