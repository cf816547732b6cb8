/**
 * @file
 * JIT-IR-level profiler (Figures 6, 8, 9).
 *
 * The JIT backend emits a kIrNode annotation, tagged with a global IR node
 * id, immediately before the lowered machine code of each compiled IR node
 * executes. Counting these gives per-node dynamic execution counts; the
 * driver joins them with backend metadata (opcode type, lowered length) to
 * produce the compiled/executed IR statistics of the paper.
 */

#ifndef XLVM_XLAYER_IRNODE_PROFILER_H
#define XLVM_XLAYER_IRNODE_PROFILER_H

#include <cstdint>
#include <vector>

#include "xlayer/bus.h"

namespace xlvm {
namespace xlayer {

class IrNodeProfiler : public AnnotListener
{
  public:
    explicit IrNodeProfiler(AnnotationBus &bus);
    ~IrNodeProfiler() override;

    void onAnnot(uint32_t tag, uint32_t payload) override;

    /** Dynamic execution count per global IR node id. */
    const std::vector<uint64_t> &execCounts() const { return counts; }

    uint64_t totalExecuted() const { return total; }

  private:
    AnnotationBus &bus_;
    std::vector<uint64_t> counts;
    uint64_t total = 0;
};

} // namespace xlayer
} // namespace xlvm

#endif // XLVM_XLAYER_IRNODE_PROFILER_H
