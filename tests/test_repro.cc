/**
 * @file
 * Tests for the reproduction driver (bench/repro.h): a run listed by
 * several sweeps is simulated once and recorded in every report that
 * lists it, probes run without flags, and malformed flags are one-line
 * usage errors with exit status 2. XLVM_TIER_MODE and XLVM_INJECT are
 * read here once, beneath the flags, and never again by the runner.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "bench_common.h"
#include "driver/runner.h"
#include "repro.h"

namespace xlvm {
namespace bench {
namespace {

using driver::RunOptions;
using driver::VmKind;
using Names = std::vector<std::string>;

RunOptions
small(const char *workload, VmKind vm)
{
    RunOptions o = baseOptions(workload, vm);
    o.scale = 20;
    return o;
}

std::vector<RunOptions>
pairRuns(const Names &, const Results &)
{
    return {small("richards", VmKind::PyPyJit),
            small("float", VmKind::CPythonLike)};
}

std::vector<RunOptions>
sharedRun(const Names &, const Results &)
{
    return {small("richards", VmKind::PyPyJit)};
}

/** A run sized by its probe, as fig3 sizes its timeline bins. */
std::vector<RunOptions>
binnedRun(const Names &, const Results &probes)
{
    RunOptions o = small("richards", VmKind::PyPyJit);
    o.timelineBin = probes[0]->instructions / 10;
    return {o};
}

const std::vector<Sweep> kSweeps = {
    {"pair", nullptr, pairRuns, nullptr, nullptr, {}},
    {"shared", nullptr, sharedRun, nullptr, nullptr, {}},
    {"binned", nullptr, binnedRun,
     [](const Names &) { return sharedRun({}, {}); }, nullptr, {}},
};

ReproArgs
select(std::vector<size_t> sweeps)
{
    ReproArgs a;
    for (size_t i : sweeps)
        a.sweeps.push_back(&kSweeps[i]);
    a.jobs = 2;
    return a;
}

TEST(Repro, SharedRunIsSimulatedOnceAndRecordedByBothSweeps)
{
    Repro both(select({0, 1}));
    both.run();
    EXPECT_EQ(both.simulatedRuns(), 2u);
    ASSERT_EQ(both.report(0).runCount(), 2u);
    ASSERT_EQ(both.report(1).runCount(), 1u);
    report::Json pair = both.report(0).toJson();
    EXPECT_EQ(pair.get("report")->asString(), "pair");
    const report::Json &run = pair.get("runs")->at(0);
    EXPECT_EQ(run.get("workload")->asString(), "richards");
    EXPECT_TRUE(run.get("completed")->asBool());

    // Each report is what the sweep alone would have produced.
    Repro alone(select({1}));
    alone.run();
    EXPECT_EQ(alone.report(0).toJson().dump(),
              both.report(1).toJson().dump());
    EXPECT_EQ(both.report(1).toJson().get("runs")->at(0).dump(),
              run.dump());
}

TEST(Repro, ProbeSharedWithAnotherSweepRunsOnceAndUnflagged)
{
    Repro repro(select({1, 2}));
    repro.run();
    // The probe is sweep "shared"'s run; the binned run is the other.
    EXPECT_EQ(repro.simulatedRuns(), 2u);
    EXPECT_EQ(repro.report(1).runCount(), 1u);

    // A flag moves recorded runs only, so the probe stops matching.
    ReproArgs tier1 = select({1, 2});
    tier1.tierMode = vm::TierMode::Tier1;
    Repro moved(tier1);
    moved.run();
    EXPECT_EQ(moved.simulatedRuns(), 3u);
}

// ---- flag parsing -------------------------------------------------------

ReproArgs
parse(std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "xlvm-repro");
    return parseReproArgs(int(argv.size()),
                          const_cast<char **>(argv.data()), paperSweeps());
}

/** One line on stderr, then exit status 2. */
#define EXPECT_USAGE_ERROR(msg, ...)                                        \
    EXPECT_EXIT(parse({__VA_ARGS__}), testing::ExitedWithCode(2),           \
                "^" msg "[^\n]*\n$")

TEST(ReproArgsDeathTest, UnknownSweepAndReportPathForManySweeps)
{
    EXPECT_USAGE_ERROR("--sweep: unknown sweep 'nosuch'", "--sweep",
                       "table1,nosuch");
    EXPECT_USAGE_ERROR("--report: a path names one sweep's report",
                       "--sweep", "table1,fig2", "--report", "json:x.json");
    // No --sweep selects every sweep.
    EXPECT_USAGE_ERROR("--report: a path names one sweep's report",
                       "--report=csv:-");
}

TEST(ReproArgsDeathTest, RejectsUnknownReportFormat)
{
    EXPECT_USAGE_ERROR("unknown report format 'xml'", "--sweep", "fig2",
                       "--report", "xml:/tmp/x");
}

TEST(ReproArgsDeathTest, MalformedCounts)
{
    EXPECT_USAGE_ERROR("--storm-threshold: invalid value 'abc'",
                       "--storm-threshold", "abc");
    EXPECT_USAGE_ERROR("--blacklist-cooldown: invalid value '-1'",
                       "--blacklist-cooldown=-1");
    EXPECT_USAGE_ERROR("--compile-budget: invalid value '12x'",
                       "--compile-budget", "12x");
    EXPECT_USAGE_ERROR("--max-traces: invalid value '4294967296'",
                       "--max-traces", "4294967296");
    EXPECT_USAGE_ERROR("--trace-buffer-events: invalid value ''",
                       "--trace-buffer-events", "");
    EXPECT_USAGE_ERROR("--profile-interval: invalid value ' 5'",
                       "--profile-interval", " 5");
    EXPECT_USAGE_ERROR("--storm-threshold requires a value",
                       "--storm-threshold");
}

TEST(ReproArgs, ParsesSweepsAndCounts)
{
    ReproArgs a = parse({"--sweep", "fig2,table1", "--storm-threshold",
                         "50", "--max-traces=0"});
    ASSERT_EQ(a.sweeps.size(), 2u);
    // Paper order, whatever order the flag names them in.
    EXPECT_STREQ(a.sweeps[0]->name, "table1");
    EXPECT_STREQ(a.sweeps[1]->name, "fig2");
    ASSERT_EQ(a.policy.size(), 2u);
    EXPECT_EQ(a.policy[0].first, &RunOptions::stormThreshold);
    EXPECT_EQ(a.policy[0].second, 50u);
    EXPECT_EQ(a.policy[1].first, &RunOptions::maxTraces);
    EXPECT_EQ(a.policy[1].second, 0u);
    EXPECT_EQ(parse({}).sweeps.size(), paperSweeps().size());
}

TEST(ReproArgs, ParsesReportFormatsAndPaths)
{
    ReproArgs one = parse({"--sweep", "fig6", "--report", "json:/tmp/x.json",
                           "--report=csv", "--jobs", "4"});
    ASSERT_EQ(one.reports.size(), 2u);
    EXPECT_EQ(one.reports[0].format, report::ReportTarget::Format::Json);
    EXPECT_EQ(one.reports[0].path, "/tmp/x.json");
    EXPECT_EQ(one.reports[1].format, report::ReportTarget::Format::Csv);
    EXPECT_EQ(one.reports[1].path, ""); // <sweep>.csv
    EXPECT_EQ(one.jobs, 4u);
    // Without a path, any number of sweeps may report.
    EXPECT_EQ(parse({"--report", "json"}).reports[0].path, "");
}

TEST(ReproArgs, ParsesJobs)
{
    EXPECT_EQ(parse({"--jobs", "5"}).jobs, 5u);
    EXPECT_EQ(parse({"--jobs=7"}).jobs, 7u);
    EXPECT_EQ(parse({"-j", "2"}).jobs, 2u);
    // 0 (or no flag) means driver::defaultJobs(), which honors XLVM_JOBS.
    EXPECT_EQ(parse({}).jobs, 0u);
    EXPECT_EXIT(parse({"-j", "four"}), testing::ExitedWithCode(2),
                "^--jobs: invalid value 'four'");
}

TEST(ReproArgs, UnknownTraceTagNumberLeavesMaskUnchanged)
{
    // 40 would shift a 32-bit mask past its width.
    EXPECT_EQ(parse({"--trace-tags", "40"}).traceTagMask,
              xlayer::kDefaultTraceTagMask);
    EXPECT_EQ(parse({"--trace-tags", "32,dispatch"}).traceTagMask,
              xlayer::kDefaultTraceTagMask |
                  xlayer::traceTagBit(xlayer::kDispatch));
}

// ---- environment: read once, beneath the flags ---------------------------

/** Sets an environment variable for one scope. */
struct ScopedEnv
{
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        setenv(name, value, 1);
    }
    ~ScopedEnv() { unsetenv(name_); }

    const char *name_;
};

TEST(ReproArgs, EnvironmentSetsTierModeAndInject)
{
    ScopedEnv tier("XLVM_TIER_MODE", "tier1");
    ScopedEnv inject("XLVM_INJECT", "recorder:5");
    ReproArgs a = parse({});
    EXPECT_EQ(a.tierMode, vm::TierMode::Tier1);
    EXPECT_EQ(a.inject, "recorder:5");
}

TEST(ReproArgs, FlagsBeatEnvironment)
{
    ScopedEnv tier("XLVM_TIER_MODE", "tier1");
    ScopedEnv inject("XLVM_INJECT", "recorder:5");
    ReproArgs a = parse({"--tier-mode", "multi", "--inject", "optimizer:2"});
    EXPECT_EQ(a.tierMode, vm::TierMode::Multi);
    EXPECT_EQ(a.inject, "optimizer:2");

    // The runner does not read the environment again: a tier-2 run
    // stays tier 2 whatever XLVM_TIER_MODE says.
    RunOptions o = baseOptions("crypto_pyaes", VmKind::PyPyJit);
    o.scale = 40;
    driver::RunResult r = driver::runWorkload(o);
    EXPECT_GT(r.loopsCompiled, 0u);
    EXPECT_EQ(r.tier1Compiles, 0u);
}

TEST(ReproArgsDeathTest, MalformedEnvironmentExits2)
{
    {
        ScopedEnv tier("XLVM_TIER_MODE", "bogus");
        EXPECT_EXIT(parse({}), testing::ExitedWithCode(2),
                    "^--tier-mode: unknown mode 'bogus'[^\n]*\n$");
    }
    ScopedEnv inject("XLVM_INJECT", "nosuch:1");
    EXPECT_EXIT(parse({}), testing::ExitedWithCode(2),
                "^--inject: unknown site 'nosuch'[^\n]*\n$");
    // A flag wins, so the bad value is never parsed.
    EXPECT_EQ(parse({"--inject", "recorder:1"}).inject, "recorder:1");
}

} // namespace
} // namespace bench
} // namespace xlvm
