#include "xlayer/work_profiler.h"

namespace xlvm {
namespace xlayer {

void
WorkRateProfiler::takeSample()
{
    WorkSample s;
    s.instructions = core_.totalInstructions();
    s.cycles = core_.totalCycles();
    s.work = work;
    samples_.push_back(s);
}

void
WorkRateProfiler::finalize()
{
    takeSample();
}

uint64_t
breakEvenInstructions(const std::vector<WorkSample> &curve,
                      double baseline_work_per_instr)
{
    if (baseline_work_per_instr <= 0.0)
        return 0;
    for (const WorkSample &s : curve) {
        double baseline_work = baseline_work_per_instr * s.instructions;
        if (double(s.work) >= baseline_work)
            return s.instructions;
    }
    return UINT64_MAX;
}

} // namespace xlayer
} // namespace xlvm
