/**
 * @file
 * AOT-call profiler (Table III).
 *
 * Tracks kAotEnter/kAotExit annotations and attributes cycles to the
 * *outermost* AOT entry point, matching the paper: "if these functions
 * call other functions, the time spent in the called functions is also
 * counted as part of these entry points". Only calls made from
 * JIT-compiled code (i.e., while the JitCall phase is active) are
 * attributed, which is how the paper separates the JIT-call phase from
 * interpreter-initiated runtime calls.
 */

#ifndef XLVM_XLAYER_AOT_PROFILER_H
#define XLVM_XLAYER_AOT_PROFILER_H

#include <cstdint>
#include <string>
#include <vector>

#include "xlayer/bus.h"

namespace xlvm {
namespace xlayer {

/** Aggregated statistics for one AOT entry point. */
struct AotFunctionStats
{
    uint32_t fnId = 0;
    uint64_t calls = 0;
    double cycles = 0.0;
};

class AotCallProfiler : public AnnotListener
{
  public:
    explicit AotCallProfiler(AnnotationBus &bus);
    ~AotCallProfiler() override;

    void onAnnot(uint32_t tag, uint32_t payload) override;

    /**
     * Per-function stats sorted by descending cycles.
     * @param min_share only functions with at least this share of
     *        total cycles (the paper uses 0.10).
     */
    std::vector<AotFunctionStats>
    significantFunctions(double min_share = 0.0) const;

    uint64_t totalCalls() const { return nCalls; }

  private:
    AnnotationBus &bus_;
    /// (fnId, entry cycles) of active calls; index 0 is outermost.
    std::vector<std::pair<uint32_t, double>> active;
    std::vector<AotFunctionStats> perFn; ///< indexed by fnId
    uint64_t nCalls = 0;
};

} // namespace xlayer
} // namespace xlvm

#endif // XLVM_XLAYER_AOT_PROFILER_H
