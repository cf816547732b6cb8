/**
 * @file
 * Fault-containment subsystem tests.
 *
 * Four layers of coverage:
 *  - the deterministic FaultEngine itself (spec grammar, one-shot
 *    counter semantics, telemetry, disarmed zero-cost contract);
 *  - the verifyTrace() SSA verifier on hand-built malformed traces
 *    (every structural defect class maps to a precise rejection);
 *  - end-to-end injection through the driver: every site produces a
 *    clean, accounted abort — never a crash — and the run completes
 *    with the correct program output;
 *  - graceful-degradation policies: deopt-storm blacklisting with
 *    cooldown re-arm, compile-budget downgrade to tier 1, and
 *    trace-cache pressure eviction.
 *
 * The differential tests pin the subsystem's core invariant: an armed
 * engine whose triggers never fire (and every containment knob at its
 * default) leaves all modeled counters bit-identical, and injected
 * failures are deterministic and --jobs-invariant.
 */

#include <gtest/gtest.h>

#include "driver/parallel.h"
#include "driver/runner.h"
#include "jit/bailout.h"
#include "jit/opt.h"
#include "rt/faults.h"

namespace xlvm {
namespace {

// ---- FaultEngine ------------------------------------------------------

TEST(FaultEngine, EmptySpecStaysDisarmed)
{
    rt::FaultEngine e;
    std::string err;
    EXPECT_TRUE(e.configure("", &err));
    EXPECT_FALSE(e.armed());
    EXPECT_FALSE(e.shouldFire(rt::FaultSite::kRecorder));
    EXPECT_EQ(e.visits(rt::FaultSite::kRecorder), 0u);
}

TEST(FaultEngine, FiresExactlyOnNthVisit)
{
    rt::FaultEngine e;
    std::string err;
    ASSERT_TRUE(e.configure("recorder:3", &err)) << err;
    ASSERT_TRUE(e.armed());
    EXPECT_FALSE(e.shouldFire(rt::FaultSite::kRecorder));
    EXPECT_FALSE(e.shouldFire(rt::FaultSite::kRecorder));
    EXPECT_TRUE(e.shouldFire(rt::FaultSite::kRecorder));
    // One-shot: never again, but visits keep counting.
    EXPECT_FALSE(e.shouldFire(rt::FaultSite::kRecorder));
    EXPECT_EQ(e.visits(rt::FaultSite::kRecorder), 4u);
    EXPECT_EQ(e.fired(rt::FaultSite::kRecorder), 1u);
    EXPECT_EQ(e.totalFired(), 1u);
}

TEST(FaultEngine, SpecGrammar)
{
    rt::FaultEngine e;
    std::string err;
    // Default ordinal is 1; "fault@" prefix is optional; commas chain;
    // the last entry wins per site.
    ASSERT_TRUE(e.configure("fault@optimizer,backend:2,optimizer:5",
                            &err))
        << err;
    EXPECT_FALSE(e.shouldFire(rt::FaultSite::kBackend));
    EXPECT_TRUE(e.shouldFire(rt::FaultSite::kBackend));
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(e.shouldFire(rt::FaultSite::kOptimizer)) << i;
    EXPECT_TRUE(e.shouldFire(rt::FaultSite::kOptimizer));
    // Unarmed sites never fire.
    EXPECT_FALSE(e.shouldFire(rt::FaultSite::kGcHook));
}

TEST(FaultEngine, MalformedSpecsRejectAndDisarm)
{
    rt::FaultEngine e;
    std::string err;
    // fault@sim_memo names a site that was removed with the sim layer's
    // replay accelerators; it must be rejected like any unknown site.
    for (const char *bad : {"frobnicator", "recorder:0", "recorder:x",
                            "recorder:3junk", "fault@", ":", "recorder:",
                            "fault@sim_memo"}) {
        err.clear();
        EXPECT_FALSE(e.configure(bad, &err)) << bad;
        EXPECT_FALSE(e.armed()) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
    // A failed configure after a successful one leaves it disarmed.
    ASSERT_TRUE(e.configure("recorder:1", &err));
    EXPECT_FALSE(e.configure("bogus", &err));
    EXPECT_FALSE(e.armed());
}

TEST(FaultEngine, SiteNamesRoundTrip)
{
    for (uint32_t s = 0; s < rt::kNumFaultSites; ++s) {
        rt::FaultSite parsed;
        ASSERT_TRUE(rt::faultSiteFromString(
            rt::faultSiteName(rt::FaultSite(s)), &parsed));
        EXPECT_EQ(uint32_t(parsed), s);
    }
    rt::FaultSite parsed;
    EXPECT_FALSE(rt::faultSiteFromString("no_such_site", &parsed));
}

// ---- verifyTrace ------------------------------------------------------

/** Minimal well-formed loop trace: inputs i0,i1; i2 = i0 + i1; jump. */
jit::Trace
wellFormedTrace()
{
    jit::Trace t;
    t.numInputs = 2;
    t.boxTypes = {jit::BoxType::Int, jit::BoxType::Int};
    jit::ResOp add;
    add.op = jit::IrOp::IntAdd;
    add.args[0] = 0;
    add.args[1] = 1;
    add.result = t.newBox(jit::BoxType::Int);
    t.ops.push_back(add);
    jit::ResOp guard;
    guard.op = jit::IrOp::GuardTrue;
    guard.args[0] = 2;
    guard.snapshotIdx = 0;
    jit::Snapshot snap;
    jit::FrameSnapshot f;
    f.locals = {0, 2};
    snap.frames.push_back(f);
    t.snapshots.push_back(snap);
    t.ops.push_back(guard);
    jit::ResOp jump;
    jump.op = jit::IrOp::Jump;
    jump.args[0] = 2;
    jump.args[1] = 1;
    t.ops.push_back(jump);
    return t;
}

TEST(VerifyTrace, AcceptsWellFormedTrace)
{
    jit::VerifyResult v = jit::verifyTrace(wellFormedTrace());
    EXPECT_TRUE(v.ok) << v.detail;
    EXPECT_EQ(v.reason, jit::AbortReason::kNone);
    EXPECT_TRUE(v.detail.empty());
}

TEST(VerifyTrace, RejectsUseBeforeDefinition)
{
    jit::Trace t = wellFormedTrace();
    t.ops[0].args[1] = 7; // box 7 never defined
    jit::VerifyResult v = jit::verifyTrace(t);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.reason, jit::AbortReason::kMalformedTrace);
    EXPECT_NE(v.detail.find("before definition"), std::string::npos)
        << v.detail;
}

TEST(VerifyTrace, RejectsConstRefOutsideTable)
{
    jit::Trace t = wellFormedTrace();
    t.ops[0].args[1] = jit::makeConstRef(3); // const table is empty
    jit::VerifyResult v = jit::verifyTrace(t);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.detail.find("const"), std::string::npos) << v.detail;
}

TEST(VerifyTrace, RejectsResultRedefinition)
{
    jit::Trace t = wellFormedTrace();
    t.ops[0].result = 1; // input box, already defined
    jit::VerifyResult v = jit::verifyTrace(t);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.detail.find("redefines"), std::string::npos) << v.detail;
}

TEST(VerifyTrace, RejectsSnapshotIndexOutOfRange)
{
    jit::Trace t = wellFormedTrace();
    t.ops[1].snapshotIdx = 9;
    jit::VerifyResult v = jit::verifyTrace(t);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.detail.find("snapshot index"), std::string::npos)
        << v.detail;
}

TEST(VerifyTrace, RejectsVirtualRefInOpArgs)
{
    jit::Trace t = wellFormedTrace();
    t.virtuals.push_back(jit::VirtualObj());
    t.ops[0].args[0] = jit::makeVirtualRef(0);
    jit::VerifyResult v = jit::verifyTrace(t);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.detail.find("virtual"), std::string::npos) << v.detail;
}

TEST(VerifyTrace, AcceptsVirtualRefInSnapshotAndChecksFields)
{
    jit::Trace t = wellFormedTrace();
    jit::VirtualObj v;
    v.numFields = 1;
    v.fieldRefs = {0};
    t.virtuals.push_back(v);
    t.snapshots[0].frames[0].locals[1] = jit::makeVirtualRef(0);
    EXPECT_TRUE(jit::verifyTrace(t).ok);
    // A virtual whose field uses an undefined box is rejected too.
    t.virtuals[0].fieldRefs = {9};
    EXPECT_FALSE(jit::verifyTrace(t).ok);
    // Out-of-range virtual index.
    t.snapshots[0].frames[0].locals[1] = jit::makeVirtualRef(4);
    EXPECT_FALSE(jit::verifyTrace(t).ok);
}

TEST(VerifyTrace, SurvivesCyclicVirtuals)
{
    jit::Trace t = wellFormedTrace();
    jit::VirtualObj v;
    v.numFields = 1;
    v.fieldRefs = {jit::makeVirtualRef(0)}; // self-referential
    t.virtuals.push_back(v);
    t.snapshots[0].frames[0].locals[1] = jit::makeVirtualRef(0);
    EXPECT_TRUE(jit::verifyTrace(t).ok);
}

TEST(VerifyTrace, CallAssemblerContract)
{
    // call_assembler io snapshot: frames[0]=args (uses), frames[1]=exit
    // contract (fresh definitions), frames[2..]=outer resume (uses
    // against the PRE-call bound).
    jit::Trace t;
    t.numInputs = 2;
    t.boxTypes = {jit::BoxType::Int, jit::BoxType::Int,
                  jit::BoxType::Int};
    jit::ResOp ca;
    ca.op = jit::IrOp::CallAssembler;
    ca.aux = 1;
    ca.snapshotIdx = 0;
    jit::Snapshot io;
    jit::FrameSnapshot args, exitC, outer;
    args.locals = {0, 1};
    exitC.locals = {2}; // fresh box definition
    outer.locals = {0};
    io.frames = {args, exitC, outer};
    t.snapshots.push_back(io);
    t.ops.push_back(ca);
    EXPECT_TRUE(jit::verifyTrace(t).ok);

    // Exit contract referencing an already-live box is the exact shape
    // of the historical hexiom2@130 bug — must be rejected.
    jit::Trace bad = t;
    bad.snapshots[0].frames[1].locals = {1};
    jit::VerifyResult v =
        jit::verifyTrace(bad, jit::AbortReason::kMalformedTrace);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.detail.find("not fresh"), std::string::npos) << v.detail;

    // Outer resume frames must not use the exit contract's fresh boxes.
    bad = t;
    bad.snapshots[0].frames[2].locals = {2};
    EXPECT_FALSE(jit::verifyTrace(bad).ok);

    // Fewer than two frames / missing snapshot are malformed.
    bad = t;
    bad.snapshots[0].frames.resize(1);
    EXPECT_FALSE(jit::verifyTrace(bad).ok);
    bad = t;
    bad.ops[0].snapshotIdx = -1;
    EXPECT_FALSE(jit::verifyTrace(bad).ok);
}

TEST(VerifyTrace, ReportsRequestedReason)
{
    jit::Trace t = wellFormedTrace();
    t.ops[0].args[1] = 7;
    jit::VerifyResult v =
        jit::verifyTrace(t, jit::AbortReason::kOptimizerFailure);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.reason, jit::AbortReason::kOptimizerFailure);
}

TEST(AbortReason, NamesAndPayloadRoundTrip)
{
    for (uint32_t r = 0; r < jit::kNumAbortReasons; ++r) {
        EXPECT_STRNE(jit::abortReasonName(jit::AbortReason(r)),
                     "unknown");
        EXPECT_EQ(uint32_t(jit::abortReasonFromPayload(r)), r);
    }
    EXPECT_EQ(jit::abortReasonFromPayload(999),
              jit::AbortReason::kNone);
}

// ---- end-to-end injection --------------------------------------------

driver::RunOptions
jitOptions(const char *workload)
{
    driver::RunOptions o;
    o.workload = workload;
    o.vm = driver::VmKind::PyPyJit;
    o.loopThreshold = 60;
    o.bridgeThreshold = 20;
    o.maxInstructions = 200u * 1000 * 1000;
    return o;
}

uint64_t
aborts(const driver::RunResult &r, jit::AbortReason reason)
{
    return r.abortReasons[uint32_t(reason)];
}

void
expectModeledIdentical(const driver::RunResult &a,
                       const driver::RunResult &b)
{
    ASSERT_TRUE(a.completed);
    ASSERT_TRUE(b.completed);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.work, b.work);
    EXPECT_EQ(a.loopsCompiled, b.loopsCompiled);
    EXPECT_EQ(a.bridgesCompiled, b.bridgesCompiled);
    EXPECT_EQ(a.tracesAborted, b.tracesAborted);
    EXPECT_EQ(a.traceEnters, b.traceEnters);
    EXPECT_EQ(a.deopts, b.deopts);
    EXPECT_EQ(a.gcMinor, b.gcMinor);
    EXPECT_EQ(a.gcMajor, b.gcMajor);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
    EXPECT_EQ(a.dcacheMisses, b.dcacheMisses);
    for (uint32_t r = 0; r < jit::kNumAbortReasons; ++r)
        EXPECT_EQ(a.abortReasons[r], b.abortReasons[r]) << "reason " << r;
    EXPECT_EQ(a.tracesBlacklisted, b.tracesBlacklisted);
    EXPECT_EQ(a.tracesEvicted, b.tracesEvicted);
    EXPECT_EQ(a.compileDowngrades, b.compileDowngrades);
}

TEST(FaultInjection, RecorderFaultAbortsRecordingNotTheRun)
{
    driver::RunOptions o = jitOptions("richards");
    driver::RunResult base = driver::runWorkload(o);
    o.inject = "recorder:1";
    driver::RunResult r = driver::runWorkload(o);
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_EQ(r.output, base.output);
    EXPECT_GE(aborts(r, jit::AbortReason::kInjected), 1u);
    EXPECT_GE(r.faultFired[uint32_t(rt::FaultSite::kRecorder)], 1u);
    EXPECT_TRUE(r.faultsArmed);
}

TEST(FaultInjection, BackendFaultDiscardsCompilation)
{
    driver::RunOptions o = jitOptions("richards");
    driver::RunResult base = driver::runWorkload(o);
    o.inject = "backend:1";
    driver::RunResult r = driver::runWorkload(o);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.output, base.output);
    EXPECT_GE(aborts(r, jit::AbortReason::kInjected), 1u);
    // The discarded registration costs one compiled loop or bridge.
    EXPECT_LE(r.loopsCompiled + r.bridgesCompiled,
              base.loopsCompiled + base.bridgesCompiled);
}

TEST(FaultInjection, OptimizerFaultDowngradesToTier1)
{
    driver::RunOptions o = jitOptions("richards");
    o.inject = "optimizer:1";
    driver::RunResult r = driver::runWorkload(o);
    ASSERT_TRUE(r.completed);
    // Containment is a downgrade, not a loss: the trace still compiles
    // at tier 1 and the run keeps its native execution.
    EXPECT_GE(r.compileDowngrades, 1u);
    EXPECT_GE(r.tier1Compiles, 1u);
    EXPECT_GE(r.loopsCompiled, 1u);
}

TEST(FaultInjection, TraceCacheFaultAbortsRegistration)
{
    driver::RunOptions o = jitOptions("richards");
    driver::RunResult base = driver::runWorkload(o);
    o.inject = "trace_cache:1";
    driver::RunResult r = driver::runWorkload(o);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.output, base.output);
    EXPECT_GE(aborts(r, jit::AbortReason::kTraceCacheFull), 1u);
}

TEST(FaultInjection, GcHookFaultIsContained)
{
    driver::RunOptions o = jitOptions("richards");
    driver::RunResult base = driver::runWorkload(o);
    o.inject = "gc_hook:1";
    driver::RunResult g = driver::runWorkload(o);
    ASSERT_TRUE(g.completed);
    EXPECT_EQ(g.output, base.output);
}

TEST(FaultInjection, EverySiteFirstVisitIsContained)
{
    // The in-process chaos sweep: for each site, fire on the first
    // visit and require clean completion with correct output and the
    // fault accounted (fired implies either an abort or a downgrade).
    driver::RunOptions o = jitOptions("richards");
    driver::RunResult base = driver::runWorkload(o);
    for (uint32_t s = 0; s < rt::kNumFaultSites; ++s) {
        driver::RunOptions inj = o;
        inj.inject = rt::faultSiteName(rt::FaultSite(s));
        driver::RunResult r = driver::runWorkload(inj);
        EXPECT_TRUE(r.completed) << inj.inject;
        EXPECT_TRUE(r.error.empty()) << inj.inject << ": " << r.error;
        EXPECT_EQ(r.output, base.output) << inj.inject;
    }
}

TEST(FaultInjection, MalformedSpecIsACleanError)
{
    driver::RunOptions o = jitOptions("richards");
    o.inject = "frobnicator:1";
    EXPECT_THROW(driver::runWorkload(o), std::invalid_argument);
}

// ---- disarmed / armed-idle bit-identity -------------------------------

TEST(FaultInjection, ArmedButIdleEngineIsInvisible)
{
    driver::RunOptions o = jitOptions("richards");
    driver::RunResult base = driver::runWorkload(o);
    // Armed for a visit ordinal that is never reached: the probe
    // branches must not move any modeled counter (the fifth golden
    // pass enforces the same contract across the full golden set).
    o.inject = "recorder:1000000000,backend:1000000000";
    driver::RunResult armed = driver::runWorkload(o);
    expectModeledIdentical(base, armed);
    EXPECT_FALSE(base.faultsArmed);
    EXPECT_TRUE(armed.faultsArmed);
    EXPECT_GE(armed.faultVisits[uint32_t(rt::FaultSite::kRecorder)], 1u);
    EXPECT_EQ(armed.faultFired[uint32_t(rt::FaultSite::kRecorder)], 0u);
}

TEST(FaultInjection, InjectedRunsAreDeterministicAndJobsInvariant)
{
    driver::RunOptions o = jitOptions("richards");
    o.inject = "recorder:2,optimizer:1";
    std::vector<driver::RunOptions> runs(4, o);
    std::vector<driver::RunResult> seq =
        driver::runWorkloadsParallel(runs, 1);
    std::vector<driver::RunResult> par =
        driver::runWorkloadsParallel(runs, 4);
    ASSERT_EQ(seq.size(), par.size());
    for (size_t i = 0; i < seq.size(); ++i) {
        expectModeledIdentical(seq[i], par[i]);
        for (uint32_t s = 0; s < rt::kNumFaultSites; ++s) {
            EXPECT_EQ(seq[i].faultVisits[s], par[i].faultVisits[s]);
            EXPECT_EQ(seq[i].faultFired[s], par[i].faultFired[s]);
        }
    }
}

// ---- graceful degradation --------------------------------------------

TEST(StormBlacklist, GuardChurnTriggersBlacklistAndRearm)
{
    driver::RunOptions o = jitOptions("guard_churn");
    o.scale = 3000;
    o.stormThreshold = 25;
    o.blacklistCooldown = 50;
    driver::RunResult r = driver::runWorkload(o);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.output, "806400\n");
    EXPECT_GE(r.tracesBlacklisted, 1u);
    // The cooldown re-arms the trace; the storm re-blacklists it with
    // a doubled cooldown (exponential backoff), so with a long cold
    // phase both counters move.
    EXPECT_GE(r.tracesRearmed, 1u);
    EXPECT_GE(r.tracesBlacklisted, r.tracesRearmed);
}

TEST(StormBlacklist, ZeroThresholdDisablesBlacklisting)
{
    driver::RunOptions o = jitOptions("guard_churn");
    o.scale = 3000;
    o.stormThreshold = 0;
    driver::RunResult r = driver::runWorkload(o);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.output, "806400\n");
    EXPECT_EQ(r.tracesBlacklisted, 0u);
    EXPECT_EQ(r.tracesRearmed, 0u);
}

TEST(StormBlacklist, BlacklistingShedsDeoptPressure)
{
    driver::RunOptions off = jitOptions("guard_churn");
    off.scale = 3000;
    off.stormThreshold = 0;
    driver::RunOptions on = off;
    on.stormThreshold = 25;
    on.blacklistCooldown = 400;
    driver::RunResult roff = driver::runWorkload(off);
    driver::RunResult ron = driver::runWorkload(on);
    ASSERT_TRUE(roff.completed);
    ASSERT_TRUE(ron.completed);
    EXPECT_EQ(roff.output, ron.output);
    // Demoting the storming trace to the interpreter must strictly
    // reduce deopts — that is the whole point of the policy.
    EXPECT_LT(ron.deopts, roff.deopts);
}

TEST(CompileBudget, TinyBudgetDowngradesToTier1)
{
    driver::RunOptions o = jitOptions("richards");
    driver::RunResult base = driver::runWorkload(o);
    o.compileBudgetOps = 5; // every real trace exceeds this
    driver::RunResult r = driver::runWorkload(o);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.output, base.output);
    EXPECT_GE(r.compileDowngrades, 1u);
    EXPECT_GE(r.tier1Compiles, 1u);
    EXPECT_GE(aborts(r, jit::AbortReason::kNone), 0u); // array readable
    // Budget containment compiles instead of aborting.
    EXPECT_GE(r.loopsCompiled, 1u);
}

TEST(TraceCachePressure, EvictionKeepsCapAndCompletes)
{
    // loop_parade has eight independent hot loops with no cross-trace
    // references, so earlier (cold) roots are genuinely evictable once
    // the cap forces a choice. richards would NOT work here: its single
    // loop root is pinned by its own bridges.
    driver::RunOptions o = jitOptions("loop_parade");
    driver::RunResult base = driver::runWorkload(o);
    ASSERT_TRUE(base.completed);
    ASSERT_GT(base.liveTraces, 2u)
        << "workload too small to exercise eviction";
    o.maxTraces = 2;
    driver::RunResult r = driver::runWorkload(o);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.output, base.output);
    EXPECT_GE(r.tracesEvicted, 1u);
    EXPECT_LE(r.liveTraces, 2u);
}

TEST(TraceCachePressure, UnevictableCacheAbortsCleanly)
{
    // maxTraces=1 with bridges pinning their parents: when nothing is
    // evictable the registration aborts with kTraceCacheFull and the
    // run still completes correctly in the interpreter.
    driver::RunOptions o = jitOptions("richards");
    driver::RunResult base = driver::runWorkload(o);
    o.maxTraces = 1;
    driver::RunResult r = driver::runWorkload(o);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.output, base.output);
    EXPECT_LE(r.liveTraces, 1u);
}

} // namespace
} // namespace xlvm
