/**
 * @file
 * Phase breakdown and phase timeline profiler (Figures 2, 3, 4; Table IV).
 *
 * Maintains the phase stack from kPhaseEnter/kPhaseExit annotations,
 * switches the core's active counter bucket accordingly (the PAPI-on-
 * annotation mechanism of Section III), and records a binned timeline of
 * cycles-per-phase for the phase diagrams of Figure 3.
 */

#ifndef XLVM_XLAYER_PHASE_PROFILER_H
#define XLVM_XLAYER_PHASE_PROFILER_H

#include <array>
#include <cstdint>
#include <vector>

#include "sim/core.h"
#include "xlayer/phase.h"

namespace xlvm {
namespace xlayer {

/** One timeline bin: cycle share of each phase within the bin. */
struct PhaseTimelineBin
{
    uint64_t instrEnd = 0; ///< cumulative instruction count at bin end
    std::array<double, kNumPhases> cycles{};
};

class PhaseProfiler
{
  public:
    /**
     * @param core         core whose counter bucket follows the phase
     * @param bin_instrs   timeline bin width in retired instructions
     *                     (0 disables timeline recording)
     */
    explicit PhaseProfiler(sim::Core &core, uint64_t bin_instrs = 0);

    /** kPhaseEnter / kPhaseExit: push or pop the phase stack and
     *  switch the core's counter bucket. */
    void enter(uint32_t phase);
    void exit(uint32_t phase);

    /** Close every timeline bin the core has run past. */
    void
    maybeCloseBin()
    {
        if (binInstrs && core_.totalInstructions() >= nextBinEnd)
            closeBins();
    }

    Phase currentPhase() const;

    /** Final per-phase counters (valid after the run). */
    const sim::PerfCounters &
    phaseCounters(Phase p) const
    {
        return core_.bucketCounters(static_cast<uint32_t>(p));
    }

    /** Fraction of total cycles spent in each phase. */
    std::array<double, kNumPhases> phaseCycleShares() const;

    const std::vector<PhaseTimelineBin> &timeline() const { return bins; }

    /** Depth of the phase stack (for tests). */
    size_t stackDepth() const { return stack.size(); }

    /** kPhaseExit events rejected on a bottomed-out phase stack. */
    uint64_t phaseUnderflows() const { return underflows_; }

  private:
    void closeBins();
    std::array<double, kNumPhases> cyclesNow() const;

    sim::Core &core_;
    std::vector<Phase> stack;
    uint64_t binInstrs;
    std::vector<PhaseTimelineBin> bins;
    std::array<double, kNumPhases> binStartCycles{};
    uint64_t nextBinEnd = 0;
    uint64_t underflows_ = 0;
};

} // namespace xlayer
} // namespace xlvm

#endif // XLVM_XLAYER_PHASE_PROFILER_H
