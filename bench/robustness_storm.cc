/**
 * @file
 * Robustness ablation — deopt-storm blacklisting on an adversarial
 * guard-churn workload (DESIGN.md §10). The stress workload compiles a
 * hot inner loop, then flips the guarded branch so every subsequent
 * trace entry fails its first guard with zero progress. Rows compare
 * containment off (every entry pays trace-entry + deopt overhead
 * forever) against the blacklist at a few threshold/cooldown settings,
 * reporting modeled cycles (normalized to containment off), total
 * deopts, and the blacklist/re-arm counts. The program output — and
 * thus every architectural counter of the workload itself — is
 * identical across rows; only the containment policy moves.
 */

#include "bench_common.h"

using namespace xlvm;
using namespace xlvm::bench;

int
main(int argc, char **argv)
{
    Session session("robustness_storm", argc, argv);

    struct Variant
    {
        const char *label;
        uint32_t stormThreshold;
        uint32_t cooldown;
    };
    const Variant variants[] = {
        {"containment off", 0, 0},
        {"threshold 50", 50, 2000},
        {"threshold 200", 200, 2000},
        {"threshold 600 (default)", 600, 4000},
    };

    std::vector<driver::RunOptions> runs;
    for (const Variant &v : variants) {
        driver::RunOptions o =
            baseOptions("guard_churn", driver::VmKind::PyPyJit);
        o.stormThreshold = v.stormThreshold;
        o.blacklistCooldown = v.cooldown;
        runs.push_back(o);
    }
    std::vector<driver::RunResult> res = session.sweep(runs);

    std::printf("Deopt-storm containment on guard_churn (cycles "
                "normalized to containment off)\n");
    std::printf("%-24s %8s %10s %12s %8s\n", "Variant", "cycles",
                "deopts", "blacklisted", "rearmed");
    printRule(66);
    double base = res[0].cycles;
    for (size_t i = 0; i < std::size(variants); ++i) {
        const driver::RunResult &r = res[i];
        std::printf("%-24s %7.3fx %10llu %12llu %8llu\n",
                    variants[i].label,
                    base > 0 ? r.cycles / base : 0.0,
                    (unsigned long long)r.deopts,
                    (unsigned long long)r.tracesBlacklisted,
                    (unsigned long long)r.tracesRearmed);
    }
    printRule(66);
    return session.finish();
}
