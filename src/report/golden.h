/**
 * @file
 * Golden-snapshot comparison for metrics reports.
 *
 * Structural diff between a freshly generated report and a committed
 * golden: integer counters must match exactly (the stack is
 * deterministic, so any drift is a real behavior change), derived
 * floats (IPC, MPKI, shares, AOT cycles) compare under a configurable
 * relative tolerance, and strings/bools/shape must be identical.
 * Drifts carry a human-readable path like
 * "runs[2:richards/PyPy*].metrics.phases.jit.instructions".
 */

#ifndef XLVM_REPORT_GOLDEN_H
#define XLVM_REPORT_GOLDEN_H

#include <string>
#include <vector>

#include "report/json.h"

namespace xlvm {
namespace report {

struct GoldenOptions
{
    /** Relative tolerance for float-vs-float comparison. */
    double rtol = 1e-6;
    /** Absolute floor below which two floats always compare equal. */
    double atol = 1e-12;
    /**
     * Object keys to skip wherever they appear (both sides): a key
     * listed here never produces a drift, whether its values differ or
     * it is missing from one report entirely. Used by the differential
     * CI passes to exclude host-side telemetry sections (e.g.
     * "profiler") whose counters legitimately differ between runs.
     */
    std::vector<std::string> ignoreKeys;
};

/** One drifted counter (or shape mismatch). */
struct Drift
{
    std::string path;
    std::string golden; ///< rendered golden value, or "<missing>"
    std::string fresh;  ///< rendered fresh value, or "<missing>"
    std::string note;   ///< e.g. "rel err 3.1e-4" or "type mismatch"
};

/**
 * Compare @p fresh against @p golden; returns every drift in document
 * order (empty = reports agree).
 */
std::vector<Drift> compareReports(const Json &golden, const Json &fresh,
                                  const GoldenOptions &opts = GoldenOptions());

/**
 * Render drifts as a unified-diff-style listing: "-" lines show the
 * golden value, "+" lines the fresh value, one hunk per drifted path.
 */
std::string formatDriftDiff(const std::string &golden_name,
                            const std::string &fresh_name,
                            const std::vector<Drift> &drifts);

/**
 * Load a JSON report from @p path. Returns false and sets @p err on
 * missing file or parse failure.
 */
bool loadReport(const std::string &path, Json *out, std::string *err);

} // namespace report
} // namespace xlvm

#endif // XLVM_REPORT_GOLDEN_H
