#include "driver/parallel.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>

#include "rt/aot_registry.h"
#include "workloads/workloads.h"

namespace xlvm {
namespace driver {

namespace {

RunResult
runOne(const RunOptions &opts)
{
    RunResult res;
    try {
        if (opts.vm == VmKind::RacketLike || opts.vm == VmKind::PycketJit)
            res = runRktWorkload(opts);
        else
            res = runWorkload(opts);
    } catch (const std::exception &e) {
        res = RunResult();
        res.error = e.what();
    } catch (...) {
        res = RunResult();
        res.error = "unknown error";
    }
    return res;
}

/**
 * Touch every function-local static the runs will share. Magic-static
 * initialization is thread-safe, but warming them here keeps the first
 * batch of workers from serializing on the init locks.
 */
void
warmShared()
{
    rt::AotRegistry::instance();
    workloads::pypySuite();
    workloads::clbgSuite();
}

} // namespace

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("XLVM_JOBS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v > 0)
            return static_cast<unsigned>(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::vector<RunResult>
runWorkloadsParallel(const std::vector<RunOptions> &runs, unsigned jobs)
{
    std::vector<RunResult> results(runs.size());
    if (runs.empty())
        return results;

    if (jobs == 0)
        jobs = defaultJobs();
    if (jobs > runs.size())
        jobs = static_cast<unsigned>(runs.size());

    if (jobs <= 1) {
        for (size_t i = 0; i < runs.size(); ++i)
            results[i] = runOne(runs[i]);
        return results;
    }

    warmShared();

    std::atomic<size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= runs.size())
                return;
            results[i] = runOne(runs[i]);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();

    return results;
}

} // namespace driver
} // namespace xlvm
