/**
 * @file
 * Work-rate profiler: the interpreter-level characterization tool behind
 * the warmup curves of Figure 5.
 *
 * Every dispatch-loop iteration emits a kDispatch annotation regardless of
 * whether the plain interpreter, the tracing meta-interpreter, or
 * JIT-compiled code is executing (traces carry the annotation through
 * their debug merge points). Counting those annotations against retired
 * instructions yields "completed work per unit time" without perturbing
 * the measured execution — the paper's break-even methodology.
 */

#ifndef XLVM_XLAYER_WORK_PROFILER_H
#define XLVM_XLAYER_WORK_PROFILER_H

#include <cstdint>
#include <vector>

#include "xlayer/bus.h"

namespace xlvm {
namespace xlayer {

/** One warmup-curve sample. */
struct WorkSample
{
    uint64_t instructions = 0; ///< retired instructions at sample time
    double cycles = 0.0;
    uint64_t work = 0;         ///< dispatch quanta (bytecodes) completed
};

class WorkRateProfiler : public AnnotListener
{
  public:
    /**
     * @param sample_instrs sample the curve every this many retired
     *        instructions.
     */
    explicit WorkRateProfiler(AnnotationBus &bus,
                              uint64_t sample_instrs = 100000);
    ~WorkRateProfiler() override;

    void onAnnot(uint32_t tag, uint32_t payload) override;

    uint64_t totalWork() const { return work; }
    const std::vector<WorkSample> &samples() const { return samples_; }

    /** Per-opcode dynamic execution histogram. */
    const std::vector<uint64_t> &opcodeHistogram() const { return opcodes; }

    /** Force a final sample at the current point. */
    void finalize();

  private:
    void takeSample();

    AnnotationBus &bus_;
    uint64_t sampleInstrs;
    uint64_t nextSample;
    uint64_t work = 0;
    std::vector<WorkSample> samples_;
    std::vector<uint64_t> opcodes;
};

/**
 * Find the break-even instruction count between a measured warmup curve
 * and a reference linear work rate (work per instruction of the baseline
 * interpreter): the earliest sample where cumulative work on the JIT VM
 * reaches what the baseline would have completed in the same number of
 * instructions. Returns 0 if the curve starts ahead, or UINT64_MAX if it
 * never breaks even within the recorded window.
 */
uint64_t breakEvenInstructions(const std::vector<WorkSample> &curve,
                               double baseline_work_per_instr);

} // namespace xlayer
} // namespace xlvm

#endif // XLVM_XLAYER_WORK_PROFILER_H
