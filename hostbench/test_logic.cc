#include <gtest/gtest.h>

#include <algorithm>

#include "logic.h"

using namespace hostbench;

TEST(Median, OddAndEvenCounts)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(TailPercentile, LeavesTenSamplesBeyond)
{
    std::vector<double> v;
    for (int i = 1; i <= 200; ++i)
        v.push_back(double(i));
    std::reverse(v.begin(), v.end());
    Tail t;
    ASSERT_TRUE(tailPercentile(v, &t));
    EXPECT_EQ(t.samples, 200u);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_DOUBLE_EQ(t.value, 190.0);
    EXPECT_DOUBLE_EQ(t.percentile, 95.0);
}

TEST(TailPercentile, SmallestSampleThatAllowsATail)
{
    // Below 20 samples the rank-(n-10) value would sit under the median.
    std::vector<double> v;
    for (int i = 0; i < 19; ++i)
        v.push_back(double(i));
    Tail t;
    EXPECT_FALSE(tailPercentile(v, &t));
    v.push_back(19.0);
    ASSERT_TRUE(tailPercentile(v, &t));
    EXPECT_EQ(t.samples, 20u);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_DOUBLE_EQ(t.value, 9.0);
    EXPECT_DOUBLE_EQ(t.percentile, 50.0);
}

TEST(TailPercentile, TiesAtTheRankStillCountBeyond)
{
    // 20 equal samples: the rank-10 value is the tie, and the count
    // beyond is by rank, not by value.
    std::vector<double> v(20, 7.0);
    Tail t;
    ASSERT_TRUE(tailPercentile(v, &t));
    EXPECT_DOUBLE_EQ(t.value, 7.0);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_DOUBLE_EQ(t.percentile, 50.0);
}

TEST(SelfTime, SubtractsChildrenOnce)
{
    SpanRecorder r;
    uint32_t run = r.add("run", -1, 1, 0, 100);
    r.add("vm.context", int32_t(run), 1, 10, 20);
    r.add("minipy.compile", int32_t(run), 1, 20, 35);
    r.add("vm.run", int32_t(run), 1, 40, 90);
    std::vector<int64_t> self = selfTimesNs(r.spans());
    EXPECT_EQ(self[run], 100 - 10 - 15 - 50);
    EXPECT_EQ(self[1], 10);
    EXPECT_EQ(self[3], 50);
}

TEST(SelfTime, OverlappingAndOverhangingChildren)
{
    SpanRecorder r;
    uint32_t p = r.add("pass", -1, 0, 100, 200);
    r.add("a", int32_t(p), 1, 90, 130);  // clipped to [100, 130)
    r.add("b", int32_t(p), 1, 120, 150); // overlaps a by 10
    r.add("c", int32_t(p), 1, 190, 250); // clipped to [190, 200)
    std::vector<int64_t> self = selfTimesNs(r.spans());
    EXPECT_EQ(self[p], 100 - 50 - 10);
}

TEST(SelfTime, NestedRecorderSpans)
{
    SpanRecorder r;
    r.begin("pass", 0);
    r.begin("run", 1);
    r.begin("vm.run", 1);
    r.end();
    r.end();
    r.end();
    const std::vector<Span> &s = r.spans();
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s[0].parent, -1);
    EXPECT_EQ(s[1].parent, 0);
    EXPECT_EQ(s[2].parent, 1);
    EXPECT_EQ(s[2].run, 1u);
    std::vector<int64_t> self = selfTimesNs(s);
    for (size_t i = 0; i < s.size(); ++i) {
        EXPECT_GE(self[i], 0);
        EXPECT_LE(self[i], s[i].durationNs());
    }
    EXPECT_EQ(self[0] + self[1] + self[2], s[0].durationNs());
}

TEST(MetricName, Charset)
{
    EXPECT_TRUE(validMetricName("sim_mips"));
    EXPECT_TRUE(validMetricName("sim.host_ns_per_inst"));
    EXPECT_TRUE(validMetricName("run_ms-p50"));
    EXPECT_TRUE(validMetricName("9lives"));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_FALSE(validMetricName("_hidden"));
    EXPECT_FALSE(validMetricName(".dot"));
    EXPECT_FALSE(validMetricName("run ms"));
    EXPECT_FALSE(validMetricName("gc/collections"));
    EXPECT_FALSE(validMetricName("p50%"));
}

namespace {

RunFacts
goodRun()
{
    RunFacts f;
    f.completed = true;
    f.output = "warming up\n42\n";
    f.counts.instructions = 1000;
    f.counts.cyclesFp = 5000;
    f.counts.annotations = 70;
    f.counts.work = 9;
    return f;
}

Expected
want()
{
    Expected e;
    e.finalLine = "42";
    e.instructions = 1000;
    e.cyclesFp = 5000;
    e.annotations = 70;
    return e;
}

} // namespace

TEST(CheckRun, AcceptsACorrectRun)
{
    RunFacts f = goodRun();
    EXPECT_EQ(checkRun(f, want(), nullptr), "");
    EXPECT_EQ(checkRun(f, want(), &f.counts), "");
    Expected any = want();
    any.finalLine.clear();
    f.output = "whatever";
    EXPECT_EQ(checkRun(f, any, nullptr), "");
}

TEST(CheckRun, RejectsEachKindOfFailure)
{
    RunFacts threw = goodRun();
    threw.error = "boom";
    EXPECT_NE(checkRun(threw, want(), nullptr), "");

    RunFacts cut = goodRun();
    cut.completed = false;
    EXPECT_NE(checkRun(cut, want(), nullptr), "");

    RunFacts wrong = goodRun();
    wrong.output = "41\n";
    EXPECT_NE(checkRun(wrong, want(), nullptr), "");

    for (uint64_t LayerCounts::*f :
         {&LayerCounts::instructions, &LayerCounts::cyclesFp,
          &LayerCounts::annotations}) {
        RunFacts moved = goodRun();
        moved.counts.*f += 1;
        EXPECT_NE(checkRun(moved, want(), nullptr), "");
    }

    RunFacts first = goodRun();
    RunFacts drift = goodRun();
    drift.counts.work += 1;
    EXPECT_NE(checkRun(drift, want(), &first.counts), "");
}

TEST(Tally, AFailedRunCountsInFailRatio)
{
    Tally t;
    RunFacts ok = goodRun();
    RunFacts bad = goodRun();
    bad.output = "nope\n";
    for (int i = 0; i < 3; ++i)
        t.record(checkRun(ok, want(), nullptr));
    t.record(checkRun(bad, want(), nullptr));
    EXPECT_EQ(t.attempted, 4u);
    EXPECT_EQ(t.failed, 1u);
    EXPECT_DOUBLE_EQ(t.failRatio(), 0.25);
    EXPECT_NE(t.firstFailure.find("nope"), std::string::npos);
}

TEST(FinalLine, IgnoresTrailingNewlines)
{
    EXPECT_EQ(finalLine("a\nb\n\n"), "b");
    EXPECT_EQ(finalLine("only"), "only");
    EXPECT_EQ(finalLine("\n\n"), "");
}

TEST(PassOrder, SeedPermutesDeterministically)
{
    std::vector<size_t> a = passOrder(20, 7, 3);
    EXPECT_EQ(a, passOrder(20, 7, 3));
    std::vector<size_t> sorted = a;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size(); ++i)
        EXPECT_EQ(sorted[i], i);
    EXPECT_NE(a, passOrder(20, 8, 3));
    EXPECT_NE(a, passOrder(20, 7, 4));
}

TEST(HostSpeedProbe, TimesADeterministicSweep)
{
    HostSpeedProbe a, b;
    EXPECT_EQ(a.checksum(), b.checksum());
    EXPECT_GT(a.sampleMs(), 0.0);
    EXPECT_NE(a.checksum(), b.checksum());
    EXPECT_GT(b.sampleMs(), 0.0);
    EXPECT_EQ(a.checksum(), b.checksum());
}

TEST(AtReferenceSpeed, ScalesByTheProbe)
{
    // A pass on a host running the probe at half speed took twice as long.
    EXPECT_DOUBLE_EQ(atReferenceSpeed(200.0, 2 * kProbeReferenceMs), 100.0);
    EXPECT_DOUBLE_EQ(atReferenceSpeed(80.0, kProbeReferenceMs), 80.0);
    EXPECT_DOUBLE_EQ(atReferenceSpeed(80.0, 0.0), 80.0);
}
