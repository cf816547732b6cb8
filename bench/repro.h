/**
 * @file
 * xlvm-repro: the one reproduction driver.
 *
 * The paper runs each benchmark once and derives every table and figure
 * from that one annotated run. xlvm-repro does the same: a *sweep* is a
 * list of run configurations with a metrics report of its own, and a
 * *view* prints one table or figure from its sweep's results without
 * simulating anything. The driver gathers the run lists of every
 * selected sweep, simulates each distinct RunOptions once through one
 * thread pool, then prints every view and writes every report. The
 * flags are listed in README.md; a malformed value is a one-line error
 * and exit status 2.
 */

#ifndef XLVM_BENCH_REPRO_H
#define XLVM_BENCH_REPRO_H

#include <cstdint>
#include <string>
#include <vector>

#include "driver/runner.h"
#include "report/metrics.h"

namespace xlvm {
namespace bench {

/** A sweep's results, one per run of its run list. Sweeps that list
 *  the same RunOptions point at the same result. */
using Results = std::vector<const driver::RunResult *>;

/** Everything a view reads. */
struct SweepData
{
    std::vector<std::string> names;       ///< after --workloads
    std::vector<driver::RunOptions> runs; ///< as they ran
    Results res;
    std::vector<double> native; ///< table2: C++* seconds, -1 = none
};

struct Sweep
{
    const char *name;
    /** Default workload list (nullptr: fixed, --workloads ignored). */
    std::vector<std::string> (*workloads)();
    /** The runs the report records, given the probes' results. */
    std::vector<driver::RunOptions> (*runs)(
        const std::vector<std::string> &names, const Results &probes);
    /** Unrecorded runs that size the run list (fig3's timeline bins),
     *  or nullptr. No flag applies to them. */
    std::vector<driver::RunOptions> (*probes)(
        const std::vector<std::string> &names);
    /** Host-side extra a view needs (table2's native column). */
    std::vector<double> (*native)(const std::vector<std::string> &names);
    std::vector<void (*)(const SweepData &)> views; ///< in print order
};

/** The paper's sweeps, in print order. */
const std::vector<Sweep> &paperSweeps();

/** Every flag, parsed once. */
struct ReproArgs
{
    std::vector<const Sweep *> sweeps;
    std::vector<std::string> workloads; ///< --workloads; empty = all
    unsigned jobs = 0;                  ///< 0 = driver::defaultJobs()
    /** --report targets; an empty path means "<sweep>.<ext>". */
    std::vector<report::ReportTarget> reports;
    vm::TierMode tierMode = vm::TierMode::Tier2; ///< or XLVM_TIER_MODE
    std::vector<std::string> tracePaths;
    uint64_t traceBufferEvents = 1u << 20;
    uint32_t traceTagMask = xlayer::kDefaultTraceTagMask;
    std::vector<std::string> profilePaths;
    uint64_t profileInterval = xlayer::kDefaultSampleIntervalCycles;
    std::string inject; ///< --inject, else XLVM_INJECT
    /** Fault-containment knobs (--storm-threshold, ...): field, value. */
    std::vector<std::pair<uint32_t driver::RunOptions::*, uint32_t>> policy;
};

/** Parse argv; a malformed value prints one line and exits 2. */
ReproArgs parseReproArgs(int argc, char **argv,
                         const std::vector<Sweep> &sweeps);

class Repro
{
  public:
    explicit Repro(ReproArgs args);

    /** Simulate every distinct run of the selected sweeps once. */
    void run();
    /** Print every view of every selected sweep, in order. */
    void printViews() const;
    /** Sweep @p i's report: its own run list, in order. */
    report::MetricsRegistry report(size_t i) const;
    /** Write the --report, --trace and --profile targets; returns the
     *  exit status. */
    int finish() const;
    size_t simulatedRuns() const { return results_.size(); }

  private:
    struct Selected
    {
        const Sweep *sweep;
        std::vector<std::string> names;
        std::vector<size_t> probes, runs; ///< indices into runs_
        std::vector<double> native;
    };

    driver::RunOptions applyFlags(driver::RunOptions o) const;
    size_t need(const driver::RunOptions &o);
    void simulatePending();
    Results resultsOf(const std::vector<size_t> &idx) const;
    /** Default stem of trace/profile files: the sweep, or xlvm-repro. */
    std::string
    stem() const
    {
        return args_.sweeps.size() == 1 ? args_.sweeps[0]->name
                                        : "xlvm-repro";
    }

    ReproArgs args_;
    std::vector<Selected> selected_;
    std::vector<driver::RunOptions> runs_; ///< distinct, first-listed order
    std::vector<driver::RunResult> results_; ///< one per simulated run
    uint32_t traced_ = 0;
};

} // namespace bench
} // namespace xlvm

#endif // XLVM_BENCH_REPRO_H
