/**
 * @file
 * Shared helpers for the reproduction driver (xlvm-repro) and the other
 * bench binaries: the paper's workload lists, the base run
 * configuration, and ASCII table helpers.
 *
 * "Time (s)" is simulated cycles at 3 GHz; we reproduce shapes
 * (orderings, dominant phases, crossovers), not the paper's absolute
 * hardware numbers.
 */

#ifndef XLVM_BENCH_COMMON_H
#define XLVM_BENCH_COMMON_H

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.h"
#include "driver/runner.h"
#include "workloads/workloads.h"

namespace xlvm {
namespace bench {

/** Membership helper for benches that iterate a suite directly. */
inline bool
contains(const std::vector<std::string> &names, const std::string &name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

/** Table I / figures workload subset (order follows the paper). */
inline std::vector<std::string>
tableOneWorkloads()
{
    return {"richards",      "crypto_pyaes",
            "chaos",         "telco",
            "spectral_norm", "django",
            "twisted_iteration", "spitfire_cstringio",
            "raytrace_simple", "hexiom2",
            "float",         "ai"};
}

/** The wider set used by Figures 2 and 5-9. */
inline std::vector<std::string>
figureWorkloads()
{
    std::vector<std::string> names;
    for (const workloads::Workload &w : workloads::pypySuite())
        names.push_back(w.name);
    return names;
}

inline driver::RunOptions
baseOptions(const std::string &workload, driver::VmKind vm)
{
    driver::RunOptions o;
    o.workload = workload;
    o.vm = vm;
    o.loopThreshold = 120;
    o.bridgeThreshold = 40;
    // Tier policy thresholds for --tier-mode tier1/multi sweeps: trace
    // earlier than the tier-2 threshold (cheap baseline compiles buy
    // early native execution), promote at moderate reuse.
    o.tier1Threshold = 30;
    o.tier2Threshold = 60;
    o.maxInstructions = 400u * 1000 * 1000;
    return o;
}

inline void
printRule(int width)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

/** Render a unit-length horizontal bar for ASCII stacked charts. */
inline std::string
bar(double fraction, int width)
{
    int n = int(fraction * width + 0.5);
    n = std::clamp(n, 0, width);
    return std::string(n, '#');
}

} // namespace bench
} // namespace xlvm

#endif // XLVM_BENCH_COMMON_H
