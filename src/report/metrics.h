/**
 * @file
 * Machine-readable metrics export (the paper-as-data subsystem).
 *
 * MetricsRegistry walks every layer's counters for each completed run —
 * the xlayer phase/event/IR-node/AOT/work profilers, the sim core,
 * cache, and branch-predictor statistics, the GC heap and object-space
 * accounting, and the JIT trace/bridge/deopt counts — and flattens them
 * into one stable, versioned schema:
 *
 *   { "schema_version": N, "report": <name>,
 *     "runs": [ { "workload", "vm", "completed",
 *                 "metrics": { section -> { counter -> value } } } ] }
 *
 * Deterministic integer counters stay 64-bit integers end to end (no
 * double round-trip); derived ratios (IPC, MPKI, phase shares) are
 * floats. Section names may nest with '/'. The same flat walk feeds the
 * JSON and CSV serializers, so both formats always agree on coverage.
 */

#ifndef XLVM_REPORT_METRICS_H
#define XLVM_REPORT_METRICS_H

#include <cstdint>
#include <string>
#include <vector>

#include "driver/runner.h"
#include "report/json.h"

namespace xlvm {
namespace report {

/** One "--report fmt[:path]" destination. */
struct ReportTarget
{
    enum class Format
    {
        Json,
        Csv
    };
    Format format = Format::Json;
    /** Output file ("-" = stdout). */
    std::string path;
};

class MetricsRegistry
{
  public:
    /**
     * Bump when the counter walk changes shape; goldens pin this.
     * v2: added config/trace_buffer_events, events/phase_underflows,
     * and the tracer drop/overflow section.
     * v3: added a host-side telemetry section for the sim layer's
     * first replay accelerator (removed in v8).
     * v4: added config/tier_mode + tier thresholds, events/tier_ups +
     * tier1_compiles, and the jit_tiers section (multi-tier JIT
     * per-tier compiles/bytes/promotions; the tier1/multi golden sets
     * compare with --ignore-section jit_tiers).
     * v5: added a host-side telemetry section for the sim layer's
     * second replay accelerator (removed in v8).
     * v6: added the latency section (iteration / trace-execution
     * modeled-cycle percentiles from always-on host-side histograms —
     * invariant under every host-side toggle, so golden-gated) and the
     * profiler section (sampling-profiler telemetry; only non-zero
     * when profiling is on, so the profiler-on differential CI pass
     * compares goldens with --ignore-section profiler).
     * v7: added config/storm_threshold + blacklist_cooldown +
     * compile_budget_ops + max_traces and the jit_robustness section
     * (per-reason trace-abort counters, blacklist/re-arm/eviction/
     * downgrade counts — all modeled and golden-gated — plus the
     * fault-injection trigger telemetry, which is host-side: the armed
     * golden CI pass compares with --ignore-section jit_robustness).
     * v8: removed the v3 and v5 sections and their fault-injection
     * site with the replay accelerators themselves; every modeled
     * counter is unchanged.
     */
    static constexpr uint64_t kSchemaVersion = 8;

    explicit MetricsRegistry(std::string report_name);

    /** Record one run: walks all layers' counters out of @p result. */
    void addRun(const driver::RunOptions &opts,
                const driver::RunResult &result);

    size_t runCount() const { return runs_.size(); }

    /** Full report document (stable member order). */
    Json toJson() const;

    /** Flat CSV: workload,vm,run,section,counter,value. */
    std::string toCsv() const;

    /**
     * Serialize to @p target ("-" as path = stdout). Returns false and
     * sets @p err on I/O failure.
     */
    bool write(const ReportTarget &target, std::string *err) const;

  private:
    struct Metric
    {
        std::string section; ///< '/'-nested, e.g. "phases/interp"
        std::string name;
        bool isFloat = false;
        uint64_t u = 0;
        double d = 0.0;
    };

    struct Run
    {
        std::string workload;
        std::string vm;
        bool completed = false;
        std::string error;
        std::vector<Metric> metrics;
    };

    std::string name_;
    std::vector<Run> runs_;
};

} // namespace report
} // namespace xlvm

#endif // XLVM_REPORT_METRICS_H
