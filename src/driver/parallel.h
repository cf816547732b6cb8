/**
 * @file
 * Thread-pool harness for running independent benchmark configurations
 * concurrently. Each run gets its own VmContext, so the simulated
 * counters are bit-identical regardless of job count or interleaving.
 */

#ifndef XLVM_DRIVER_PARALLEL_H
#define XLVM_DRIVER_PARALLEL_H

#include <vector>

#include "driver/runner.h"

namespace xlvm {
namespace driver {

/**
 * Number of worker threads to use by default: the XLVM_JOBS environment
 * variable if set to a positive integer, else hardware_concurrency()
 * (min 1).
 */
unsigned defaultJobs();

/**
 * Run every configuration in `runs` and return results in the same
 * order. Racket-family VM kinds are dispatched to runRktWorkload, the
 * rest to runWorkload. A run that throws is reported as a RunResult
 * with completed=false and `error` set to the exception text; sibling
 * runs are unaffected. jobs==0 means defaultJobs(); jobs is clamped to
 * runs.size(), and jobs<=1 executes inline on the calling thread.
 */
std::vector<RunResult> runWorkloadsParallel(const std::vector<RunOptions> &runs,
                                            unsigned jobs = 0);

} // namespace driver
} // namespace xlvm

#endif // XLVM_DRIVER_PARALLEL_H
