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

#include <algorithm>
#include <set>

#include "driver/runner.h"
#include "minipy/compiler.h"
#include "minipy/interp.h"
#include "minirkt/compiler.h"
#include "vm/blackhole.h"
#include "vm/context.h"
#include "workloads/workloads.h"

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

/**
 * CLOSED — tier1 and multi aborted the process on a plain nested
 * `range` loop ("cannot rebuild virtual of type range"): the `range()`
 * builtin records `new_with_vtable(range)` plus three `setfield_gc`,
 * and a deopt snapshot holding that virtual reached the blackhole,
 * which had no way to allocate a W_Range or set its fields.
 * allocByTypeId now rebuilds it and W_Range::rtSetField maps the
 * recorded fields onto begin/end/step.
 *
 * The regression guard runs the repro with the JIT off and in all three
 * tier modes at the default thresholds; every configuration must print
 * the interpreter's answer.
 */
TEST(KnownIssues, NestedRangeLoopAgreesInAllTierModes)
{
    const char *src = "def inner(a, k):\n"
                      "    s = 0\n"
                      "    for j in range(k):\n"
                      "        s = s + a * j\n"
                      "    return s\n"
                      "acc = 0\n"
                      "for i in range(2000):\n"
                      "    acc = acc + inner(i, 5)\n"
                      "print(acc)\n";
    auto run = [&](bool jit, vm::TierMode mode) {
        vm::VmConfig cfg;
        cfg.jit.enableJit = jit;
        cfg.jit.tierMode = mode;
        vm::VmContext ctx(cfg);
        auto prog = minipy::compileSource(src, ctx.space);
        minipy::Interp interp(ctx, *prog);
        EXPECT_TRUE(interp.run());
        return interp.output();
    };
    EXPECT_EQ(run(false, vm::TierMode::Tier2), "19990000\n");
    for (vm::TierMode mode : {vm::TierMode::Tier2, vm::TierMode::Tier1,
                              vm::TierMode::Multi})
        EXPECT_EQ(run(true, mode), "19990000\n")
            << "tier mode " << vm::tierModeName(mode);
}

/**
 * Closes the class of the bug above. Every type id that reaches a
 * compiled trace as a new_with_vtable (tier 1 runs the raw recording)
 * or as a virtual (tier 2 sinks the allocation) must be one
 * vm::kRebuildableTypes lists; test_vm's VirtualRebuild checks that
 * each listed type is built by allocByTypeId with settable fields. The
 * programs reach every new_with_vtable the recorders emit: boxed
 * int/float/bool, range and its iterator, list/tuple/str iterators,
 * bound methods, instances (MiniPy) and pairs (MiniRkt).
 */
TEST(KnownIssues, RecordedAllocationTypesAreRebuildable)
{
    const char *py = "class P:\n"
                     "    def __init__(self, x):\n"
                     "        self.x = x\n"
                     "    def get(self):\n"
                     "        return self.x\n"
                     "def inner(a, k):\n"
                     "    s = 0\n"
                     "    for j in range(k):\n"
                     "        s = s + a * j\n"
                     "    return s\n"
                     "acc = 0\n"
                     "f = 0.0\n"
                     "t = (1, 2)\n"
                     "for i in range(300):\n"
                     "    acc = acc + inner(i, 3)\n"
                     "    for v in [i, 1]:\n"
                     "        acc = acc + v\n"
                     "    for v in t:\n"
                     "        acc = acc + v\n"
                     "    for c in 'ab':\n"
                     "        acc = acc + len(c)\n"
                     "    m = P(i).get\n"
                     "    acc = acc + m()\n"
                     "    f = f + 0.5\n"
                     "    b = i < 150\n"
                     "    if b:\n"
                     "        acc = acc + 1\n"
                     "print(acc)\n"
                     "print(f)\n";
    const workloads::Workload *trees = workloads::findWorkload("binarytrees");
    ASSERT_NE(trees, nullptr);
    workloads::Workload rkt = *trees;
    rkt.source = rkt.rktSource;
    const std::string rktSrc = workloads::instantiate(rkt, 4);

    const std::set<uint32_t> rebuildable(std::begin(vm::kRebuildableTypes),
                                         std::end(vm::kRebuildableTypes));
    std::set<uint32_t> seen;
    for (vm::TierMode mode : {vm::TierMode::Tier2, vm::TierMode::Tier1,
                              vm::TierMode::Multi}) {
        for (bool isRkt : {false, true}) {
            vm::VmConfig cfg;
            cfg.jit.tierMode = mode;
            cfg.jit.loopThreshold = 3;
            cfg.jit.bridgeThreshold = 2;
            cfg.jit.tier1Threshold = 3;
            cfg.jit.tier2Threshold = 5;
            vm::VmContext ctx(cfg);
            auto prog = isRkt ? minirkt::compileRkt(rktSrc, ctx.space)
                              : minipy::compileSource(py, ctx.space);
            minipy::Interp interp(ctx, *prog);
            ASSERT_TRUE(interp.run()) << vm::tierModeName(mode);
            for (const auto &t : ctx.registry.all()) {
                if (!t)
                    continue;
                for (const jit::ResOp &op : t->ops) {
                    if (op.op == jit::IrOp::NewWithVtable)
                        seen.insert(op.aux);
                }
                for (const jit::VirtualObj &vo : t->virtuals)
                    seen.insert(vo.typeId);
            }
        }
    }
    for (uint32_t tid : seen)
        EXPECT_TRUE(rebuildable.count(tid))
            << "recorded type " << obj::typeName(tid)
            << " cannot be rebuilt";
    // The programs must keep reaching the allocation sites this test is
    // about; a silent drop would make the check above vacuous.
    for (uint32_t tid : {obj::kTypeRange, obj::kTypeListIter,
                         obj::kTypeBoundMethod, obj::kTypeInstance,
                         obj::kTypePair, obj::kTypeFloat})
        EXPECT_TRUE(seen.count(tid))
            << "no trace allocated " << obj::typeName(tid);
}

} // namespace
} // namespace xlvm
