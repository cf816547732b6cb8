#include "xlayer/aot_profiler.h"

#include <algorithm>

#include "common/logging.h"

namespace xlvm {
namespace xlayer {

void
AotCallProfiler::enter(uint32_t fn)
{
    active.emplace_back(fn, core_.totalCycles());
    ++nCalls;
}

void
AotCallProfiler::exit(uint32_t fn)
{
    XLVM_ASSERT(!active.empty(), "AOT exit without enter");
    XLVM_ASSERT(active.back().first == fn, "mismatched AOT exit, fn ", fn);
    double entry_cycles = active.back().second;
    active.pop_back();
    // Attribute to the outermost entry point only.
    if (active.empty()) {
        if (fn >= perFn.size())
            perFn.resize(fn + 1);
        perFn[fn].fnId = fn;
        ++perFn[fn].calls;
        perFn[fn].cycles += core_.totalCycles() - entry_cycles;
    }
}

std::vector<AotFunctionStats>
AotCallProfiler::significantFunctions(double min_share) const
{
    double total = core_.totalCycles();
    std::vector<AotFunctionStats> out;
    for (const auto &f : perFn) {
        if (f.calls == 0)
            continue;
        if (total <= 0 || f.cycles / total >= min_share)
            out.push_back(f);
    }
    std::sort(out.begin(), out.end(),
              [](const AotFunctionStats &a, const AotFunctionStats &b) {
                  return a.cycles > b.cycles;
              });
    return out;
}

} // namespace xlayer
} // namespace xlvm
