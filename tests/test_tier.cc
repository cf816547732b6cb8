/**
 * @file
 * Multi-tier JIT tests (tier policy, promotion, per-tier accounting).
 *
 * The tiering layer's contract has two halves. Behaviorally, Tier1 mode
 * compiles raw recorded traces without the optimizer, Multi mode
 * additionally promotes a baseline trace to the optimized tier once its
 * execution count crosses tier2Threshold, and Tier2 (the default)
 * reproduces the pre-tiering pipeline exactly. Mechanically, promotion
 * must be safe against everything that can race it: a guard-side bridge
 * getting hot while the promotion is pending, and parallel sweeps
 * interleaving runs. The tests here pin both halves, plus the
 * degenerate threshold==0 configurations.
 */

#include <gtest/gtest.h>

#include "driver/parallel.h"
#include "driver/runner.h"
#include "xlayer/annot.h"

namespace xlvm {
namespace {

driver::RunOptions
baseOptions(const char *workload, int64_t scale)
{
    driver::RunOptions o;
    o.workload = workload;
    o.scale = scale;
    o.vm = driver::VmKind::PyPyJit;
    o.loopThreshold = 60;
    o.bridgeThreshold = 20;
    o.tier1Threshold = 30;
    o.tier2Threshold = 40;
    return o;
}

void
expectTierCountersIdentical(const driver::RunResult &a,
                            const driver::RunResult &b)
{
    EXPECT_EQ(a.tier1Compiles, b.tier1Compiles);
    EXPECT_EQ(a.tier2Compiles, b.tier2Compiles);
    EXPECT_EQ(a.tierPromotions, b.tierPromotions);
    EXPECT_EQ(a.tierUps, b.tierUps);
    EXPECT_EQ(a.tier1CodeBytes, b.tier1CodeBytes);
    EXPECT_EQ(a.tier2CodeBytes, b.tier2CodeBytes);
    EXPECT_EQ(a.tier1RetiredBytes, b.tier1RetiredBytes);
    EXPECT_EQ(a.tier1CompileInsts, b.tier1CompileInsts);
    EXPECT_EQ(a.tier2CompileInsts, b.tier2CompileInsts);
    EXPECT_EQ(a.tier1CyclesFp, b.tier1CyclesFp);
    EXPECT_EQ(a.tier2CyclesFp, b.tier2CyclesFp);
}

void
expectModeledCountersIdentical(const driver::RunResult &a,
                               const driver::RunResult &b)
{
    ASSERT_TRUE(a.completed);
    ASSERT_TRUE(b.completed);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.loopsCompiled, b.loopsCompiled);
    EXPECT_EQ(a.bridgesCompiled, b.bridgesCompiled);
    EXPECT_EQ(a.traceEnters, b.traceEnters);
    EXPECT_EQ(a.deopts, b.deopts);
    EXPECT_EQ(a.gcMinor, b.gcMinor);
    EXPECT_EQ(a.gcMajor, b.gcMajor);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
    EXPECT_EQ(a.dcacheMisses, b.dcacheMisses);
    EXPECT_EQ(a.work, b.work);
    expectTierCountersIdentical(a, b);
}

// ---- mode semantics ---------------------------------------------------

TEST(TierModes, DefaultTier2HasNoTieringActivity)
{
    driver::RunOptions o = baseOptions("crypto_pyaes", 60);
    // o.tierMode defaults to Tier2.
    driver::RunResult r = driver::runWorkload(o);
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.loopsCompiled, 0u);
    EXPECT_EQ(r.tier1Compiles, 0u);
    EXPECT_EQ(r.tierPromotions, 0u);
    EXPECT_EQ(r.tierUps, 0u);
    EXPECT_EQ(r.tier1CodeBytes, 0u);
    EXPECT_EQ(r.tier1CyclesFp, 0u);
    // Every registered trace (loops + bridges) compiled at tier 2.
    EXPECT_EQ(r.tier2Compiles, r.loopsCompiled + r.bridgesCompiled);
    EXPECT_GT(r.tier2CyclesFp, 0u);
}

TEST(TierModes, Tier1CompilesBaselineOnly)
{
    driver::RunOptions o = baseOptions("crypto_pyaes", 60);
    o.tierMode = vm::TierMode::Tier1;
    driver::RunResult r = driver::runWorkload(o);
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.tier1Compiles, 0u);
    EXPECT_EQ(r.tier1Compiles, r.loopsCompiled + r.bridgesCompiled);
    EXPECT_EQ(r.tier2Compiles, 0u);
    EXPECT_EQ(r.tierPromotions, 0u);
    EXPECT_GT(r.tier1CyclesFp, 0u);
    EXPECT_EQ(r.tier2CyclesFp, 0u);
    EXPECT_GT(r.tier1CodeBytes, 0u);
    EXPECT_EQ(r.tier1RetiredBytes, 0u);

    // Baseline compilation changes modeled costs, never semantics.
    driver::RunOptions t2 = baseOptions("crypto_pyaes", 60);
    driver::RunResult r2 = driver::runWorkload(t2);
    EXPECT_EQ(r.output, r2.output);
}

TEST(TierModes, MultiPromotesHotTraces)
{
    driver::RunOptions o = baseOptions("crypto_pyaes", 60);
    o.tierMode = vm::TierMode::Multi;
    o.traceBufferEvents = 1 << 16;
    driver::RunResult r = driver::runWorkload(o);
    ASSERT_TRUE(r.completed);

    EXPECT_GT(r.tier1Compiles, 0u);
    EXPECT_GT(r.tierPromotions, 0u);
    // In Multi mode the only route to tier 2 is promotion.
    EXPECT_EQ(r.tier2Compiles, r.tierPromotions);
    // The annotation stream (event profiler) sees the same tier-ups the
    // backend performed.
    EXPECT_EQ(r.tierUps, r.tierPromotions);
    // Promotion retires the baseline body from the resident footprint.
    EXPECT_GT(r.tier1RetiredBytes, 0u);
    // Hot code ends up running optimized.
    EXPECT_GT(r.tier2CyclesFp, 0u);
    // Promotion charges the optimizer's modeled compile cost.
    EXPECT_GT(r.tier2CompileInsts, 0u);
    EXPECT_GT(r.tier1CompileInsts, 0u);

    // kTierUp events flow through the streaming tracer too (exact only
    // when the ring did not wrap over any of them).
    uint64_t tierUpEvents = 0;
    for (const xlayer::TraceRecord &e : r.trace.events) {
        if (e.tag == xlayer::kTierUp)
            ++tierUpEvents;
    }
    if (r.trace.droppedEvents == 0)
        EXPECT_EQ(tierUpEvents, r.tierPromotions);
    else
        EXPECT_GT(tierUpEvents, 0u);
}

TEST(TierModes, OffDisablesJit)
{
    driver::RunOptions o = baseOptions("crypto_pyaes", 40);
    o.tierMode = vm::TierMode::Off;
    driver::RunResult r = driver::runWorkload(o);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.loopsCompiled, 0u);
    EXPECT_EQ(r.traceEnters, 0u);
    EXPECT_EQ(r.tier1Compiles + r.tier2Compiles, 0u);
}

// ---- degenerate thresholds -------------------------------------------

TEST(TierThresholds, ZeroTier1ThresholdTracesOnFirstVisit)
{
    driver::RunOptions o = baseOptions("crypto_pyaes", 40);
    o.tierMode = vm::TierMode::Tier1;
    o.tier1Threshold = 0;
    driver::RunResult r = driver::runWorkload(o);
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.tier1Compiles, 0u);
    EXPECT_EQ(r.tierPromotions, 0u);

    driver::RunOptions t2 = baseOptions("crypto_pyaes", 40);
    driver::RunResult r2 = driver::runWorkload(t2);
    EXPECT_EQ(r.output, r2.output);
}

TEST(TierThresholds, ZeroTier2ThresholdPromotesImmediately)
{
    driver::RunOptions o = baseOptions("crypto_pyaes", 40);
    o.tierMode = vm::TierMode::Multi;
    o.tier2Threshold = 0;
    driver::RunResult r = driver::runWorkload(o);
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.tierPromotions, 0u);
    // With an always-satisfied promotion threshold, every baseline
    // trace that takes a single backward transfer tiers up.
    EXPECT_LE(r.tierPromotions, r.tier1Compiles);
    EXPECT_EQ(r.tierUps, r.tierPromotions);
}

// ---- promotion vs. guard-side bridges ---------------------------------

TEST(TierRace, PromotionCoexistsWithHotGuardBridges)
{
    // richards deopts enough that guards get hot while promotions are
    // in flight: the executor suppresses starting a bridge on a trace
    // with a pending promotion (the promotion wins; bridge counters
    // re-arm), and promotion detaches previously attached baseline
    // bridges. The run must stay deterministic and the accounting
    // coherent.
    driver::RunOptions o = baseOptions("richards", 0);
    o.tierMode = vm::TierMode::Multi;
    driver::RunResult a = driver::runWorkload(o);
    driver::RunResult b = driver::runWorkload(o);
    ASSERT_TRUE(a.completed);

    EXPECT_GT(a.tierPromotions, 0u);
    EXPECT_GT(a.bridgesCompiled, 0u);
    EXPECT_EQ(a.tier2Compiles, a.tierPromotions);
    EXPECT_EQ(a.tier1Compiles, a.loopsCompiled + a.bridgesCompiled);

    expectModeledCountersIdentical(a, b);
}

// ---- parallel sweeps --------------------------------------------------

TEST(TierParallel, PerTierCountersInvariantAcrossJobs)
{
    std::vector<driver::RunOptions> runs;
    for (const char *w : {"crypto_pyaes", "chaos"}) {
        driver::RunOptions o = baseOptions(w, 40);
        o.tierMode = vm::TierMode::Multi;
        runs.push_back(o);
    }

    std::vector<driver::RunResult> seq =
        driver::runWorkloadsParallel(runs, 1);
    std::vector<driver::RunResult> par =
        driver::runWorkloadsParallel(runs, 3);

    ASSERT_EQ(seq.size(), par.size());
    for (size_t i = 0; i < seq.size(); ++i) {
        SCOPED_TRACE(runs[i].workload);
        expectModeledCountersIdentical(seq[i], par[i]);
    }
}

} // namespace
} // namespace xlvm
