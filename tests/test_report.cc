/**
 * @file
 * Tests for the metrics-export subsystem: JSON round-trips (escaping,
 * nesting, 64-bit integer exactness), MetricsRegistry schema shape, and
 * the golden-snapshot comparator that xlvm-check-golden wraps.
 */

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "driver/runner.h"
#include "report/golden.h"
#include "report/json.h"
#include "report/metrics.h"

using namespace xlvm;
using namespace xlvm::report;

// ---- JSON value / serializer / parser -----------------------------------

TEST(Json, RoundTripScalars)
{
    EXPECT_EQ(Json(uint64_t(0)).dump(0), "0");
    EXPECT_EQ(Json(true).dump(0), "true");
    EXPECT_EQ(Json(false).dump(0), "false");
    EXPECT_EQ(Json().dump(0), "null");
    EXPECT_EQ(Json(int64_t(-42)).dump(0), "-42");
    EXPECT_EQ(Json("hi").dump(0), "\"hi\"");
}

TEST(Json, LargeUInt64WithoutPrecisionLoss)
{
    // 2^53 + 1 and UINT64_MAX are not representable as doubles; they
    // must survive a serialize/parse cycle bit-exactly.
    const uint64_t vals[] = {9007199254740993ull, 18446744073709551615ull,
                             1234567890123456789ull};
    for (uint64_t v : vals) {
        std::string text = Json(v).dump(0);
        std::string err;
        Json back = Json::parse(text, &err);
        ASSERT_TRUE(err.empty()) << err;
        ASSERT_TRUE(back.isInteger()) << text;
        EXPECT_EQ(back.asUInt(), v);
    }
}

TEST(Json, StringEscaping)
{
    std::string nasty = "quote\" back\\slash \n\t\r\b\f ctrl\x01 end";
    std::string text = Json(nasty).dump(0);
    std::string err;
    Json back = Json::parse(text, &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(back.asString(), nasty);
    // The control character must be \u-escaped, not emitted raw.
    EXPECT_NE(text.find("\\u0001"), std::string::npos);
}

TEST(Json, UnicodeEscapeParses)
{
    std::string err;
    Json v = Json::parse("\"a\\u00e9b\\u0041\"", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.asString(), "a\xc3\xa9"
                            "bA");
}

TEST(Json, NestedObjectsKeepInsertionOrder)
{
    Json doc = Json::object();
    doc.set("zebra", Json(uint64_t(1)));
    doc.set("alpha", Json(uint64_t(2)));
    Json inner = Json::object();
    inner.set("y", Json(uint64_t(3)));
    inner.set("x", Json::array());
    doc.set("nested", std::move(inner));

    std::string text = doc.dump(0);
    // Insertion order, not sorted order.
    EXPECT_EQ(text,
              "{\"zebra\":1,\"alpha\":2,\"nested\":{\"y\":3,\"x\":[]}}");

    std::string err;
    Json back = Json::parse(doc.dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(back.dump(0), text);
}

TEST(Json, FloatsRoundTripExactly)
{
    const double vals[] = {0.0008932239166666667, 1.0 / 3.0, 3.46,
                           1e-300, 12345678.875};
    for (double v : vals) {
        std::string text = Json(v).dump(0);
        std::string err;
        Json back = Json::parse(text, &err);
        ASSERT_TRUE(err.empty()) << err;
        EXPECT_EQ(back.asDouble(), v) << text;
    }
    // Integral doubles keep a float marker so kinds survive reparse.
    EXPECT_EQ(Json(2.0).dump(0), "2.0");
    EXPECT_FALSE(Json::parse("2.0").isInteger());
}

TEST(Json, ParseErrorsAreReported)
{
    std::string err;
    Json v = Json::parse("{\"a\": }", &err);
    EXPECT_TRUE(v.isNull());
    EXPECT_FALSE(err.empty());
    err.clear();
    Json::parse("[1, 2", &err);
    EXPECT_FALSE(err.empty());
    err.clear();
    Json::parse("{} trailing", &err);
    EXPECT_FALSE(err.empty());
}

// ---- MetricsRegistry schema ---------------------------------------------

namespace {

driver::RunOptions
sampleOptions()
{
    driver::RunOptions o;
    o.workload = "richards";
    o.vm = driver::VmKind::PyPyJit;
    o.loopThreshold = 120;
    return o;
}

driver::RunResult
sampleResult()
{
    driver::RunResult r;
    r.completed = true;
    r.phaseCounters[0].instructions = 1000;
    r.phaseCounters[0].cyclesFp = 4000;
    r.phaseCounters[2].instructions = 500;
    r.ipc = 1.5;
    r.loopsCompiled = 3;
    r.gcAllocations = 77;
    r.icacheHits = 123456;
    r.work = 42;
    return r;
}

} // namespace

TEST(MetricsRegistry, SchemaShape)
{
    MetricsRegistry reg("unit");
    reg.addRun(sampleOptions(), sampleResult());
    Json doc = reg.toJson();

    ASSERT_TRUE(doc.isObject());
    ASSERT_NE(doc.get("schema_version"), nullptr);
    EXPECT_EQ(doc.get("schema_version")->asUInt(),
              MetricsRegistry::kSchemaVersion);
    EXPECT_EQ(doc.get("report")->asString(), "unit");

    const Json &runs = *doc.get("runs");
    ASSERT_EQ(runs.size(), 1u);
    const Json &run = runs.at(0);
    EXPECT_EQ(run.get("workload")->asString(), "richards");
    EXPECT_EQ(run.get("vm")->asString(), "PyPy*");
    EXPECT_TRUE(run.get("completed")->asBool());

    const Json &metrics = *run.get("metrics");
    ASSERT_NE(metrics.get("totals"), nullptr);
    EXPECT_EQ(metrics.get("totals")->get("instructions")->asUInt(), 1500u);
    ASSERT_NE(metrics.get("phases"), nullptr);
    EXPECT_EQ(metrics.get("phases")
                  ->get("interp")
                  ->get("instructions")
                  ->asUInt(),
              1000u);
    EXPECT_EQ(metrics.get("phases")->get("jit")->get("instructions")
                  ->asUInt(),
              500u);
    EXPECT_EQ(metrics.get("events")->get("loops_compiled")->asUInt(), 3u);
    EXPECT_EQ(metrics.get("gc")->get("allocations")->asUInt(), 77u);
    EXPECT_EQ(metrics.get("caches")->get("icache_hits")->asUInt(),
              123456u);
    EXPECT_EQ(metrics.get("interp")->get("total_work")->asUInt(), 42u);
    // Derived ratios are floats.
    EXPECT_EQ(metrics.get("totals")->get("ipc")->kind(),
              Json::Kind::Float);
}

TEST(MetricsRegistry, CsvAgreesWithJsonCoverage)
{
    MetricsRegistry reg("unit");
    reg.addRun(sampleOptions(), sampleResult());
    std::string csv = reg.toCsv();
    EXPECT_NE(csv.find("workload,vm,run,section,counter,value\n"),
              std::string::npos);
    EXPECT_NE(csv.find("richards,PyPy*,0,totals,instructions,1500"),
              std::string::npos);
    EXPECT_NE(csv.find("richards,PyPy*,0,phases/interp,instructions,"
                       "1000"),
              std::string::npos);
    EXPECT_NE(csv.find("richards,PyPy*,0,gc,allocations,77"),
              std::string::npos);
}

TEST(MetricsRegistry, JsonIsByteStableAcrossIdenticalRuns)
{
    MetricsRegistry a("unit"), b("unit");
    a.addRun(sampleOptions(), sampleResult());
    b.addRun(sampleOptions(), sampleResult());
    EXPECT_EQ(a.toJson().dump(2), b.toJson().dump(2));
}

// ---- golden comparison (check_golden self-test) -------------------------

TEST(Golden, IdenticalReportsPass)
{
    MetricsRegistry reg("unit");
    reg.addRun(sampleOptions(), sampleResult());
    Json a = reg.toJson();
    std::string err;
    Json b = Json::parse(a.dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_TRUE(compareReports(a, b).empty());
}

TEST(Golden, PerturbedCounterFailsWithNamedPath)
{
    MetricsRegistry reg("unit");
    reg.addRun(sampleOptions(), sampleResult());
    Json golden = reg.toJson();

    driver::RunResult r = sampleResult();
    r.phaseCounters[0].instructions += 1; // drift one counter
    MetricsRegistry reg2("unit");
    reg2.addRun(sampleOptions(), r);
    Json fresh = reg2.toJson();

    std::vector<Drift> drifts = compareReports(golden, fresh);
    ASSERT_FALSE(drifts.empty());
    // The drifted paths must name the perturbed counter (totals and
    // phases/interp both see it).
    bool sawPhase = false;
    for (const Drift &d : drifts) {
        EXPECT_NE(d.path.find("richards/PyPy*"), std::string::npos)
            << d.path;
        if (d.path ==
            "runs[0:richards/PyPy*].metrics.phases.interp.instructions")
            sawPhase = true;
    }
    EXPECT_TRUE(sawPhase);

    std::string diff = formatDriftDiff("golden.json", "fresh.json", drifts);
    EXPECT_NE(diff.find("--- golden.json"), std::string::npos);
    EXPECT_NE(diff.find("+++ fresh.json"), std::string::npos);
    EXPECT_NE(diff.find("instructions = 1000"), std::string::npos);
    EXPECT_NE(diff.find("instructions = 1001"), std::string::npos);
}

TEST(Golden, IntegerCountersAreExact)
{
    std::string gold = "{\"a\": 18446744073709551615}";
    std::string fresh = "{\"a\": 18446744073709551614}";
    Json g = Json::parse(gold), f = Json::parse(fresh);
    // One ULP of drift at a magnitude where doubles cannot see it.
    EXPECT_EQ(compareReports(g, f).size(), 1u);
    EXPECT_TRUE(compareReports(g, g).empty());
}

TEST(Golden, FloatsCompareUnderRelativeTolerance)
{
    Json g = Json::parse("{\"ipc\": 1.5}");
    Json fOk = Json::parse("{\"ipc\": 1.5000001}");
    Json fBad = Json::parse("{\"ipc\": 1.52}");
    GoldenOptions opts;
    opts.rtol = 1e-6;
    EXPECT_TRUE(compareReports(g, fOk, opts).empty());
    ASSERT_EQ(compareReports(g, fBad, opts).size(), 1u);
    EXPECT_NE(compareReports(g, fBad, opts)[0].note.find("rel err"),
              std::string::npos);
}

TEST(Golden, MissingAndExtraKeysAreDrifts)
{
    Json g = Json::parse("{\"a\": 1, \"b\": 2}");
    Json f = Json::parse("{\"a\": 1, \"c\": 3}");
    std::vector<Drift> drifts = compareReports(g, f);
    ASSERT_EQ(drifts.size(), 2u);
    EXPECT_EQ(drifts[0].path, "b");
    EXPECT_EQ(drifts[0].fresh, "<missing>");
    EXPECT_EQ(drifts[1].path, "c");
    EXPECT_EQ(drifts[1].golden, "<missing>");
}

TEST(Golden, SchemaVersionMismatchIsDrift)
{
    Json g = Json::parse("{\"schema_version\": 1}");
    Json f = Json::parse("{\"schema_version\": 2}");
    ASSERT_EQ(compareReports(g, f).size(), 1u);
    EXPECT_EQ(compareReports(g, f)[0].path, "schema_version");
}

// ---- loadReport hardening --------------------------------------------
//
// The golden gate and the bench guard both trust loadReport to turn a
// damaged on-disk report (crashed generator, truncated CI artifact,
// stray shell output) into a one-line error instead of a vacuous pass.

namespace {

/** Write @p text to a unique temp file and return its path. */
std::string
tempReport(const char *tag, const std::string &text)
{
    std::string path =
        ::testing::TempDir() + "xlvm_load_report_" + tag + ".json";
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(text.data(), std::streamsize(text.size()));
    f.close();
    return path;
}

} // namespace

TEST(LoadReport, MissingFileIsAnError)
{
    Json doc;
    std::string err;
    EXPECT_FALSE(loadReport("/nonexistent/xlvm_no_such.json", &doc, &err));
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

TEST(LoadReport, EmptyFileIsAnError)
{
    Json doc;
    std::string err;
    EXPECT_FALSE(loadReport(tempReport("empty", ""), &doc, &err));
    EXPECT_NE(err.find("empty report"), std::string::npos) << err;
    err.clear();
    EXPECT_FALSE(loadReport(tempReport("blank", " \n\t\n"), &doc, &err));
    EXPECT_NE(err.find("empty report"), std::string::npos) << err;
}

TEST(LoadReport, TruncatedJsonIsAnError)
{
    Json doc;
    std::string err;
    EXPECT_FALSE(loadReport(
        tempReport("trunc", "{\"schema_version\": 7, \"runs\": ["), &doc,
        &err));
    EXPECT_FALSE(err.empty());
}

TEST(LoadReport, TrailingGarbageIsAnError)
{
    Json doc;
    std::string err;
    EXPECT_FALSE(
        loadReport(tempReport("garbage", "{}\nsegfault at 0x0"), &doc, &err));
    EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

TEST(LoadReport, NonObjectTopLevelIsAnError)
{
    // "null"/"42"/"[]" parse cleanly but comparing against them would
    // vacuously succeed — they must be rejected up front.
    Json doc;
    std::string err;
    for (const char *bad : {"null", "42", "[1, 2]", "\"oops\""}) {
        err.clear();
        EXPECT_FALSE(loadReport(tempReport("nonobj", bad), &doc, &err))
            << bad;
        EXPECT_NE(err.find("not a JSON report object"), std::string::npos)
            << bad << ": " << err;
    }
}

TEST(LoadReport, WellFormedReportLoads)
{
    Json doc;
    std::string err;
    ASSERT_TRUE(loadReport(
        tempReport("ok", "{\"schema_version\": 7, \"runs\": []}"), &doc,
        &err))
        << err;
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.get("schema_version")->asUInt(), 7u);
}
