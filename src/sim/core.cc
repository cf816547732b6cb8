#include "sim/core.h"

#include "common/logging.h"

namespace xlvm {
namespace sim {

Core::Core(const CoreParams &p)
    : params(p),
      issueCostFp(kCycleFp / p.issueWidth),
      gshare(p.branchPred),
      btb(p.branchPred),
      ras(p.branchPred),
      icache(p.icache),
      dcache(p.dcache)
{
    XLVM_ASSERT(p.issueWidth > 0 && p.issueWidth <= kCycleFp,
                "unsupported issue width");
}

void
Core::armSampler(CycleSampleSink *s, uint64_t interval_fp)
{
    if (s == nullptr || interval_fp == 0) {
        sampleSink_ = nullptr;
        sampleIntervalFp_ = 0;
        sampleClockFp_ = 0;
        nextSampleFp_ = UINT64_MAX;
        return;
    }
    sampleSink_ = s;
    sampleIntervalFp_ = interval_fp;
    sampleClockFp_ = 0;
    nextSampleFp_ = interval_fp;
}

void
Core::sampleFire(uint64_t pc)
{
    // A single large charge (a long straight run) can cross several
    // sample points at once; deliver one sample per crossed point so
    // sample density stays proportional to modeled time regardless of
    // how the charge was batched.
    while (nextSampleFp_ <= sampleClockFp_) {
        sampleSink_->onCycleSample(nextSampleFp_, bucket, pc, sampleCtx_);
        nextSampleFp_ += sampleIntervalFp_;
    }
}

const PerfCounters &
Core::bucketCounters(uint32_t b) const
{
    XLVM_ASSERT(b < kMaxBuckets, "bucket out of range");
    return buckets[b];
}

PerfCounters
Core::totalCounters() const
{
    PerfCounters total;
    for (const auto &b : buckets)
        total.accumulate(b);
    return total;
}

double
Core::totalCycles() const
{
    return double(totalCyclesFp()) / kCycleFp;
}

double
Core::seconds() const
{
    return totalCycles() / (params.frequencyGhz * 1e9);
}

void
Core::resetStats()
{
    for (auto &b : buckets)
        b = PerfCounters();
    otherInstructions = otherCyclesFp = 0;
    icache.reset();
    dcache.reset();
    gshare.reset();
    btb.reset();
    ras.reset();
}

} // namespace sim
} // namespace xlvm
