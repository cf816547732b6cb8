/**
 * @file
 * Tests for the thread-pool benchmark harness: the parallel path must
 * produce results bit-identical to sequential execution (same counters,
 * same output, any job count), keep input ordering, and convert a
 * throwing run into a failed RunResult without killing its siblings.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "driver/parallel.h"
#include "driver/runner.h"

namespace xlvm {
namespace {

using driver::RunOptions;
using driver::RunResult;
using driver::VmKind;

RunOptions
opts(const std::string &workload, VmKind vm)
{
    RunOptions o;
    o.workload = workload;
    o.vm = vm;
    o.scale = 60;
    o.loopThreshold = 25;
    o.bridgeThreshold = 12;
    o.maxInstructions = 200u * 1000 * 1000;
    return o;
}

/** A mixed sweep: interpreter, nojit, JIT, and both MiniRkt kinds. */
std::vector<RunOptions>
mixedSweep()
{
    return {
        opts("crypto_pyaes", VmKind::CPythonLike),
        opts("chaos", VmKind::PyPyJit),
        opts("richards", VmKind::PyPyNoJit),
        opts("mandelbrot", VmKind::PycketJit),
        opts("nbody", VmKind::RacketLike),
        opts("float", VmKind::PyPyJit),
        opts("spectral_norm", VmKind::PyPyJit),
    };
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.branchMpki, b.branchMpki);
    EXPECT_EQ(a.loopsCompiled, b.loopsCompiled);
    EXPECT_EQ(a.bridgesCompiled, b.bridgesCompiled);
    EXPECT_EQ(a.deopts, b.deopts);
    EXPECT_EQ(a.gcMinor, b.gcMinor);
    EXPECT_EQ(a.gcMajor, b.gcMajor);
    EXPECT_EQ(a.work, b.work);
    for (uint32_t p = 0; p < xlayer::kNumPhases; ++p) {
        const sim::PerfCounters &ca = a.phaseCounters[p];
        const sim::PerfCounters &cb = b.phaseCounters[p];
        EXPECT_EQ(ca.instructions, cb.instructions) << "phase " << p;
        EXPECT_EQ(ca.cyclesFp, cb.cyclesFp) << "phase " << p;
        EXPECT_EQ(ca.branches, cb.branches) << "phase " << p;
        EXPECT_EQ(ca.condBranches, cb.condBranches) << "phase " << p;
        EXPECT_EQ(ca.mispredicts, cb.mispredicts) << "phase " << p;
        EXPECT_EQ(ca.loads, cb.loads) << "phase " << p;
        EXPECT_EQ(ca.stores, cb.stores) << "phase " << p;
        EXPECT_EQ(ca.icacheMisses, cb.icacheMisses) << "phase " << p;
        EXPECT_EQ(ca.dcacheMisses, cb.dcacheMisses) << "phase " << p;
    }
}

TEST(Parallel, MatchesSequentialAtAnyJobCount)
{
    std::vector<RunOptions> runs = mixedSweep();
    std::vector<RunResult> seq = driver::runWorkloadsParallel(runs, 1);
    ASSERT_EQ(seq.size(), runs.size());
    for (const RunResult &r : seq) {
        EXPECT_TRUE(r.completed) << r.error;
        EXPECT_TRUE(r.error.empty()) << r.error;
    }

    for (unsigned jobs : {2u, 8u}) {
        std::vector<RunResult> par =
            driver::runWorkloadsParallel(runs, jobs);
        ASSERT_EQ(par.size(), runs.size());
        for (size_t i = 0; i < runs.size(); ++i) {
            SCOPED_TRACE("jobs=" + std::to_string(jobs) + " run #" +
                         std::to_string(i) + " (" + runs[i].workload +
                         ")");
            expectIdentical(seq[i], par[i]);
        }
    }
}

TEST(Parallel, FailedRunDoesNotKillSiblings)
{
    std::vector<RunOptions> runs = {
        opts("crypto_pyaes", VmKind::CPythonLike),
        opts("no_such_workload", VmKind::PyPyJit),
        opts("chaos", VmKind::PyPyJit),
        // runWorkload can't model the Racket-family kinds, but the
        // harness dispatches them to runRktWorkload; a PyPy-suite-only
        // workload still has no MiniRkt translation and must fail.
        opts("richards", VmKind::PycketJit),
    };
    std::vector<RunResult> res = driver::runWorkloadsParallel(runs, 4);
    ASSERT_EQ(res.size(), 4u);

    EXPECT_TRUE(res[0].completed);
    EXPECT_TRUE(res[0].error.empty());

    EXPECT_FALSE(res[1].completed);
    EXPECT_NE(res[1].error.find("no_such_workload"), std::string::npos)
        << res[1].error;

    EXPECT_TRUE(res[2].completed);
    EXPECT_TRUE(res[2].error.empty());

    EXPECT_FALSE(res[3].completed);
    EXPECT_FALSE(res[3].error.empty());
}

TEST(Parallel, ZeroJobsMeansDefaultAndEmptyIsFine)
{
    EXPECT_TRUE(driver::runWorkloadsParallel({}, 0).empty());
    std::vector<RunOptions> one = {opts("float", VmKind::CPythonLike)};
    std::vector<RunResult> res = driver::runWorkloadsParallel(one, 0);
    ASSERT_EQ(res.size(), 1u);
    EXPECT_TRUE(res[0].completed) << res[0].error;
}

TEST(Parallel, DefaultJobsHonorsEnv)
{
    ::setenv("XLVM_JOBS", "3", 1);
    EXPECT_EQ(driver::defaultJobs(), 3u);
    ::setenv("XLVM_JOBS", "bogus", 1);
    unsigned fallback = driver::defaultJobs();
    EXPECT_GE(fallback, 1u);
    ::unsetenv("XLVM_JOBS");
    EXPECT_GE(driver::defaultJobs(), 1u);
}

} // namespace
} // namespace xlvm
