/**
 * @file
 * Guarded repro cases for known, documented engine bugs.
 *
 * Each test here pins a bug we know about but have not fixed yet, as an
 * EXPECTED failure: the test passes while the bug reproduces and FAILS
 * the moment the bug is fixed — the signal to delete the repro, close
 * the matching ROADMAP entry, and land the coordinated golden update.
 * Keep this file small; it is a ledger, not a dumping ground.
 *
 * Closed entries graduate into regression tests below the ledger: the
 * inverted assertion (the bug must NOT reproduce) stays here so the
 * file remains the single place where the engine's failure history is
 * executable.
 */

#include <gtest/gtest.h>

#include "driver/runner.h"
#include "minipy/compiler.h"
#include "minipy/interp.h"
#include "vm/context.h"

namespace xlvm {
namespace {

driver::RunOptions
hexiom2At130(vm::TierMode mode)
{
    driver::RunOptions o;
    o.workload = "hexiom2";
    o.vm = driver::VmKind::PyPyJit;
    // The bench sweep configuration (bench_common.h baseOptions) with
    // the hotness threshold moved to the historically crashing value:
    // loopThreshold=130 in the default tier, tier1Threshold=130 in
    // tier1/multi.
    o.loopThreshold = 130;
    o.bridgeThreshold = 40;
    o.tierMode = mode;
    o.tier1Threshold = 130;
    o.tier2Threshold = 160;
    o.maxInstructions = 400u * 1000 * 1000;
    return o;
}

/**
 * CLOSED — ROADMAP "Latent recording bug at high loop thresholds":
 * hexiom2 used to die with a type-confusion panic ("unsupported []= on
 * int") when the trace threshold was exactly 130, in every tier mode.
 * Root cause: maybeCallAssembler captured the outer resume frames of a
 * call_assembler io snapshot with post-call encodings, so a mismatched
 * inner exit rebuilt the outer frame from the exit contract's fresh
 * boxes and resumed the interpreter on type-confused slots. The fix
 * captures frames[2..] with pre-call encodings (and verifyTrace now
 * rejects the malformed shape outright, so a recurrence degrades to a
 * kMalformedTrace safe bailout instead of a heap-corrupting crash).
 *
 * The regression guard runs the exact repro in all three JIT tier
 * modes and requires clean completion.
 */
TEST(KnownIssues, Hexiom2Threshold130CompletesInAllTierModes)
{
    for (vm::TierMode mode : {vm::TierMode::Tier2, vm::TierMode::Tier1,
                              vm::TierMode::Multi}) {
        driver::RunResult r = driver::runWorkload(hexiom2At130(mode));
        EXPECT_TRUE(r.completed)
            << "tier mode " << vm::tierModeName(mode);
        EXPECT_TRUE(r.error.empty()) << r.error;
        // The run must finish because the bug is fixed — not because a
        // containment path papered over it: no malformed-trace bailout
        // may fire on the healthy engine.
        EXPECT_EQ(
            r.abortReasons[uint32_t(jit::AbortReason::kMalformedTrace)],
            0u)
            << "tier mode " << vm::tierModeName(mode);
    }
}

/**
 * CLOSED — a matched call_assembler exit leaked the nested run's
 * DeoptResult (its FrameState vectors, ~300 KB per `go` run): the
 * executor's CallAssembler handler dispatched the next micro-op by
 * computed goto while the result was still in scope, and GCC runs no
 * destructors on that jump. The handler now ends its locals' lifetime
 * before dispatch.
 *
 * The regression guard runs nested loops whose outer trace calls the
 * inner one through call_assembler, with every inner exit matching the
 * recorded contract. The leak itself is only visible to a leak checker:
 * the sanitizer CI job runs this binary under AddressSanitizer, whose
 * exit-time leak check fails the job if the result is not destroyed.
 */
TEST(KnownIssues, MatchedCallAssemblerExitFreesInnerState)
{
    vm::VmConfig cfg;
    cfg.jit.loopThreshold = 10;
    // No bridges: the inner loop's exit guard must stay a plain deopt,
    // so the hot outer loop records the inner one as call_assembler.
    cfg.jit.bridgeThreshold = 1000000;
    vm::VmContext ctx(cfg);
    auto prog = minipy::compileSource("t = 0\n"
                                      "i = 0\n"
                                      "while i < 200:\n"
                                      "    j = 0\n"
                                      "    while j < 40:\n"
                                      "        t += j\n"
                                      "        j += 1\n"
                                      "    i += 1\n"
                                      "print(t)\n",
                                      ctx.space);
    minipy::Interp interp(ctx, *prog);
    ASSERT_TRUE(interp.run());
    EXPECT_EQ(interp.output(), "156000\n");

    // The outer loop's trace holds the call_assembler and ran compiled.
    uint64_t callerExecutions = 0;
    for (const auto &t : ctx.registry.all()) {
        if (!t)
            continue;
        for (const jit::ResOp &op : t->ops) {
            if (op.op == jit::IrOp::CallAssembler)
                callerExecutions += t->executions;
        }
    }
    EXPECT_GT(callerExecutions, 0u);
}

} // namespace
} // namespace xlvm
