#include <gtest/gtest.h>

#include "sim/core.h"
#include "sim/emitter.h"
#include "xlayer/annot.h"
#include "xlayer/bus.h"

namespace xlvm {
namespace xlayer {
namespace {

/** A bare core and its bus, with the bus's instrument parameters. */
struct Fixture
{
    explicit Fixture(uint64_t timeline_bin = 0,
                     uint64_t work_sample_instrs = 100000)
        : bus(core, timeline_bin, work_sample_instrs)
    {
    }

    sim::Core core;
    AnnotationBus bus;
};

TEST(PhaseProfiler, BucketsFollowPhaseStack)
{
    Fixture f;
    PhaseProfiler &phases = f.bus.phases;
    EXPECT_EQ(phases.currentPhase(), Phase::Interpreter);

    sim::BlockEmitter e(f.core, 0x400000);
    e.alu(10); // interpreter
    e.annot(kPhaseEnter, uint32_t(Phase::Jit));
    e.alu(20); // jit
    e.annot(kPhaseEnter, uint32_t(Phase::Gc));
    e.alu(5); // gc inside jit
    e.annot(kPhaseExit, uint32_t(Phase::Gc));
    e.alu(1); // back to jit
    e.annot(kPhaseExit, uint32_t(Phase::Jit));
    e.alu(2); // interpreter again

    EXPECT_EQ(phases.currentPhase(), Phase::Interpreter);
    EXPECT_EQ(phases.phaseCounters(Phase::Interpreter).instructions, 12u);
    EXPECT_EQ(phases.phaseCounters(Phase::Jit).instructions, 21u);
    EXPECT_EQ(phases.phaseCounters(Phase::Gc).instructions, 5u);
}

TEST(PhaseProfiler, SharesSumToOne)
{
    Fixture f;
    PhaseProfiler &phases = f.bus.phases;
    sim::BlockEmitter e(f.core, 0x400000);
    e.alu(10);
    e.annot(kPhaseEnter, uint32_t(Phase::Jit));
    e.alu(30);
    e.annot(kPhaseExit, uint32_t(Phase::Jit));
    auto shares = phases.phaseCycleShares();
    double sum = 0;
    for (double s : shares)
        sum += s;
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_GT(shares[uint32_t(Phase::Jit)],
              shares[uint32_t(Phase::Interpreter)]);
}

TEST(PhaseProfiler, TimelineBinsCoverRun)
{
    Fixture f(100);
    PhaseProfiler &phases = f.bus.phases;
    sim::BlockEmitter e(f.core, 0x400000);
    for (int i = 0; i < 50; ++i) {
        e.alu(10);
        e.annot(kAppEvent, 0); // gives the profiler a chance to bin
    }
    EXPECT_GE(phases.timeline().size(), 4u);
    EXPECT_EQ(phases.timeline()[0].instrEnd, 100u);
}

TEST(WorkRate, CountsDispatchQuanta)
{
    Fixture f(0, 50);
    WorkRateProfiler &work = f.bus.work;
    sim::BlockEmitter e(f.core, 0x400000);
    for (int i = 0; i < 30; ++i) {
        e.annot(kDispatch, i % 3);
        e.alu(10);
    }
    work.finalize();
    EXPECT_EQ(work.totalWork(), 30u);
    ASSERT_GE(work.opcodeHistogram().size(), 3u);
    EXPECT_EQ(work.opcodeHistogram()[0], 10u);
    EXPECT_FALSE(work.samples().empty());
    EXPECT_EQ(work.samples().back().work, 30u);
}

TEST(WorkRate, BreakEvenFound)
{
    // Build a synthetic curve: slow first (0.5 work/instr below baseline
    // of 1.0), then fast.
    std::vector<WorkSample> curve;
    curve.push_back({100, 0, 50});   // behind
    curve.push_back({200, 0, 150});  // behind (needs 200)
    curve.push_back({300, 0, 320});  // ahead
    EXPECT_EQ(breakEvenInstructions(curve, 1.0), 300u);
}

TEST(WorkRate, BreakEvenNeverReached)
{
    std::vector<WorkSample> curve = {{100, 0, 10}, {200, 0, 20}};
    EXPECT_EQ(breakEvenInstructions(curve, 1.0), UINT64_MAX);
}

TEST(WorkRate, BreakEvenImmediate)
{
    std::vector<WorkSample> curve = {{100, 0, 200}};
    EXPECT_EQ(breakEvenInstructions(curve, 1.0), 100u);
}

TEST(AotProfiler, AttributesOutermostEntry)
{
    Fixture f;
    AotCallProfiler &aot = f.bus.aot;
    sim::BlockEmitter e(f.core, 0x400000);

    e.annot(kAotEnter, 5);
    e.alu(100);
    e.annot(kAotEnter, 9); // nested call
    e.alu(50);
    e.annot(kAotExit, 9);
    e.annot(kAotExit, 5);

    auto fns = aot.significantFunctions();
    ASSERT_EQ(fns.size(), 1u); // nested call folded into entry point
    EXPECT_EQ(fns[0].fnId, 5u);
    EXPECT_EQ(fns[0].calls, 1u);
    EXPECT_GT(fns[0].cycles, 0.0);
}

TEST(AotProfiler, MinShareFilters)
{
    Fixture f;
    AotCallProfiler &aot = f.bus.aot;
    sim::BlockEmitter e(f.core, 0x400000);
    e.annot(kAotEnter, 1);
    e.alu(1000);
    e.annot(kAotExit, 1);
    e.annot(kAotEnter, 2);
    e.alu(1);
    e.annot(kAotExit, 2);
    e.alu(10);

    auto all = aot.significantFunctions(0.0);
    EXPECT_EQ(all.size(), 2u);
    auto big = aot.significantFunctions(0.5);
    ASSERT_EQ(big.size(), 1u);
    EXPECT_EQ(big[0].fnId, 1u);
}

TEST(IrNodeProfiler, CountsPerNode)
{
    Fixture f;
    IrNodeProfiler &ir = f.bus.ir;
    sim::BlockEmitter e(f.core, 0x400000);
    for (int i = 0; i < 5; ++i)
        e.annot(kIrNode, 3);
    e.annot(kIrNode, 10);
    EXPECT_EQ(ir.totalExecuted(), 6u);
    EXPECT_EQ(ir.execCounts()[3], 5u);
    EXPECT_EQ(ir.execCounts()[10], 1u);
}

TEST(Bus, CountsEveryTagAndAbortReason)
{
    Fixture f;
    sim::BlockEmitter e(f.core, 0x400000);
    e.annot(kLoopCompiled, 0);
    e.annot(kBridgeCompiled, 1);
    e.annot(kTraceAborted, 2);
    e.annot(kTraceAborted, 999); // unknown reason: slot 0
    e.annot(kTraceEnter, 0);
    e.annot(kTraceEnter, 0);
    e.annot(kDeopt, 7);
    e.annot(kGcMinor, 0);
    e.annot(kGcMajor, 0);
    e.annot(kAppEvent, 3);
    e.annot(kDispatch, 4);
    e.annot(40, 1); // past the tag slots: routed nowhere, not counted
    EXPECT_EQ(f.bus.count(kLoopCompiled), 1u);
    EXPECT_EQ(f.bus.count(kBridgeCompiled), 1u);
    EXPECT_EQ(f.bus.count(kTraceAborted), 2u);
    EXPECT_EQ(f.bus.count(kTraceEnter), 2u);
    EXPECT_EQ(f.bus.count(kDeopt), 1u);
    EXPECT_EQ(f.bus.count(kGcMinor), 1u);
    EXPECT_EQ(f.bus.count(kGcMajor), 1u);
    EXPECT_EQ(f.bus.count(kAppEvent), 1u);
    EXPECT_EQ(f.bus.count(kDispatch), 1u);
    EXPECT_EQ(f.bus.count(kTierUp), 0u);
    EXPECT_EQ(f.bus.count(40), 0u);
    EXPECT_EQ(f.bus.abortReasons[2], 1u);
    EXPECT_EQ(f.bus.abortReasons[0], 1u);
    EXPECT_EQ(f.bus.work.totalWork(), 1u);
}

} // namespace
} // namespace xlayer
} // namespace xlvm
