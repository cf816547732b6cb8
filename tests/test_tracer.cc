/**
 * @file
 * Streaming event tracer: ring-buffer semantics, Chrome trace-event
 * export well-formedness, the xlvm-trace inspector helpers, and the
 * zero-perturbation differential guarantee (tracing on vs off leaves
 * every simulated counter bit-identical).
 */

#include <gtest/gtest.h>

#include "driver/runner.h"
#include "report/metrics.h"
#include "report/profile_export.h"
#include "report/trace_export.h"
#include "sim/core.h"
#include "sim/emitter.h"
#include "xlayer/annot.h"
#include "xlayer/bus.h"
#include "xlayer/phase_profiler.h"
#include "xlayer/tracer.h"

namespace xlvm {
namespace {

using namespace xlayer;

struct Fixture
{
    sim::Core core;
    AnnotationBus bus{core};
};

TracerOptions
capOpts(uint64_t capacity)
{
    TracerOptions o;
    o.capacityEvents = capacity;
    return o;
}

TEST(TracerRing, WraparoundKeepsNewestAndCountsDrops)
{
    Fixture f;
    EventTracer tracer(f.bus, capOpts(10));
    ASSERT_TRUE(tracer.enabled());

    sim::BlockEmitter e(f.core, 0x400000);
    for (uint32_t i = 0; i < 25; ++i) {
        e.alu(3);
        e.annot(kAppEvent, i);
    }

    EXPECT_EQ(tracer.recordedEvents(), 25u);
    EXPECT_EQ(tracer.droppedEvents(), 15u);
    ASSERT_EQ(tracer.size(), 10u);
    // The live window is the newest 10 events, oldest first.
    for (size_t i = 0; i < 10; ++i)
        EXPECT_EQ(tracer.at(i).payload, 15u + i);
    for (size_t i = 1; i < 10; ++i)
        EXPECT_GE(tracer.at(i).cyclesFp, tracer.at(i - 1).cyclesFp);
}

TEST(TracerRing, WraparoundAcrossChunkBoundary)
{
    Fixture f;
    const uint64_t cap = EventTracer::kChunkEvents + 1000;
    EventTracer tracer(f.bus, capOpts(cap));
    sim::BlockEmitter e(f.core, 0x400000);
    const uint32_t emitted = uint32_t(2 * cap + 17);
    for (uint32_t i = 0; i < emitted; ++i)
        e.annot(kAppEvent, i);

    EXPECT_EQ(tracer.recordedEvents(), emitted);
    EXPECT_EQ(tracer.droppedEvents(), emitted - cap);
    ASSERT_EQ(tracer.size(), cap);
    for (size_t i = 0; i < tracer.size(); ++i)
        EXPECT_EQ(tracer.at(i).payload, emitted - cap + i);
}

TEST(TracerRing, DisabledNeverSubscribesOrRecords)
{
    Fixture f;
    EventTracer tracer(f.bus, capOpts(0));
    EXPECT_FALSE(tracer.enabled());
    sim::BlockEmitter e(f.core, 0x400000);
    e.annot(kDeopt, 1);
    EXPECT_EQ(tracer.recordedEvents(), 0u);
    EXPECT_EQ(tracer.size(), 0u);
    // Direct delivery must also be a no-op, not a division by zero.
    tracer.onAnnot(kDeopt, 2);
    EXPECT_EQ(tracer.recordedEvents(), 0u);
}

TEST(TracerRing, DefaultTagMaskExcludesFirehoseTags)
{
    Fixture f;
    EventTracer tracer(f.bus, capOpts(100));
    sim::BlockEmitter e(f.core, 0x400000);
    e.annot(kDispatch, 1);
    e.annot(kIrNode, 2);
    e.annot(kAotEnter, 3);
    e.annot(kAotExit, 3);
    e.annot(kDeopt, 7);
    ASSERT_EQ(tracer.recordedEvents(), 1u);
    EXPECT_EQ(tracer.at(0).tag, uint32_t(kDeopt));
    EXPECT_EQ(tracer.at(0).payload, 7u);
}

TEST(TracerRing, RecordsPhaseAfterTransitionAndRunId)
{
    Fixture f;
    PhaseProfiler phases(f.bus); // registered first: updates the bucket
    TracerOptions opts = capOpts(100);
    opts.runId = 42;
    EventTracer tracer(f.bus, opts);

    sim::BlockEmitter e(f.core, 0x400000);
    e.annot(kPhaseEnter, uint32_t(Phase::Jit));
    e.alu(5);
    e.annot(kPhaseExit, uint32_t(Phase::Jit));

    ASSERT_EQ(tracer.size(), 2u);
    EXPECT_EQ(tracer.at(0).tag, uint32_t(kPhaseEnter));
    EXPECT_EQ(tracer.at(0).phase, uint8_t(Phase::Jit));
    EXPECT_EQ(tracer.at(1).tag, uint32_t(kPhaseExit));
    EXPECT_EQ(tracer.at(1).phase, uint8_t(Phase::Interpreter));
    EXPECT_EQ(tracer.at(0).runId, 42u);
    // Timestamp is the exact total-cycle clock at record time.
    EXPECT_EQ(tracer.at(1).cyclesFp, f.core.totalCyclesFp());
}

TEST(TracerRing, CounterSamplerFiresOnFrameworkEvents)
{
    Fixture f;
    EventTracer tracer(f.bus, capOpts(100));
    tracer.setCounterSampler([] {
        TraceCounterSample s{};
        s.heapBytes = 111;
        s.traceCacheBytes = 222;
        return s;
    });
    sim::BlockEmitter e(f.core, 0x400000);
    e.alu(10);
    e.annot(kGcMinor, 0);   // samples
    e.annot(kAppEvent, 1);  // recorded, but no sample
    ASSERT_EQ(tracer.counterSamples().size(), 1u);
    EXPECT_EQ(tracer.counterSamples()[0].heapBytes, 111u);
    EXPECT_EQ(tracer.counterSamples()[0].traceCacheBytes, 222u);
    EXPECT_GT(tracer.counterSamples()[0].cyclesFp, 0u);
    EXPECT_EQ(tracer.droppedCounterSamples(), 0u);
    EXPECT_EQ(tracer.recordedEvents(), 2u);
}

TEST(TracerRing, TakeDrainsOldestFirstAndResets)
{
    Fixture f;
    EventTracer tracer(f.bus, capOpts(4));
    sim::BlockEmitter e(f.core, 0x400000);
    for (uint32_t i = 0; i < 6; ++i)
        e.annot(kAppEvent, i);

    TraceLog log = tracer.take();
    EXPECT_EQ(log.recordedEvents, 6u);
    EXPECT_EQ(log.droppedEvents, 2u);
    EXPECT_EQ(log.capacityEvents, 4u);
    ASSERT_EQ(log.events.size(), 4u);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(log.events[i].payload, 2u + i);

    EXPECT_EQ(tracer.recordedEvents(), 0u);
    e.annot(kAppEvent, 99);
    ASSERT_EQ(tracer.size(), 1u);
    EXPECT_EQ(tracer.at(0).payload, 99u);
}

TEST(TagNames, RoundTrip)
{
    EXPECT_STREQ(report::annotTagName(kDeopt), "deopt");
    EXPECT_EQ(report::annotTagFromString("deopt"), int32_t(kDeopt));
    EXPECT_EQ(report::annotTagFromString("9"), int32_t(kDeopt));
    EXPECT_EQ(report::annotTagFromString("gc_minor"),
              int32_t(kGcMinor));
    EXPECT_EQ(report::annotTagFromString("nonsense"), -1);
}

// ---- Chrome export ----------------------------------------------------

driver::RunOptions
smallJitRun()
{
    driver::RunOptions o;
    o.workload = "richards";
    o.vm = driver::VmKind::PyPyJit;
    o.loopThreshold = 120;
    o.bridgeThreshold = 40;
    o.maxInstructions = 2u * 1000 * 1000;
    return o;
}

TEST(ChromeExport, WellFormedRoundTripsThroughJsonParser)
{
    driver::RunOptions o = smallJitRun();
    o.traceBufferEvents = 1u << 16;
    driver::RunResult r = driver::runWorkload(o);
    ASSERT_GT(r.trace.recordedEvents, 0u);
    EXPECT_EQ(r.trace.droppedEvents, 0u);

    report::ChromeTraceBuilder builder;
    builder.addRun(o.workload, driver::vmKindName(o.vm), r.trace);
    report::Json doc = builder.toJson();

    std::string err;
    report::Json parsed = report::Json::parse(doc.dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;
    const report::Json *events = parsed.get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_GT(events->size(), 0u);

    size_t begins = 0, ends = 0;
    for (const report::Json &ev : events->items()) {
        const report::Json *ph = ev.get("ph");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(ev.get("name"), nullptr);
        ASSERT_NE(ev.get("pid"), nullptr);
        if (ph->asString() == "M")
            continue;
        ASSERT_NE(ev.get("ts"), nullptr);
        ASSERT_NE(ev.get("args"), nullptr);
        if (ph->asString() == "B")
            ++begins;
        if (ph->asString() == "E")
            ++ends;
    }
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends); // balanced durations load in Perfetto
}

TEST(ChromeExport, SyntheticRepairBalancesWrappedHead)
{
    // A head-truncated log: the ring wrapped and the first surviving
    // record is an exit whose begin was overwritten.
    TraceLog log;
    log.capacityEvents = 4;
    log.recordedEvents = 10;
    log.droppedEvents = 6;
    TraceRecord r{};
    r.cyclesFp = 1000;
    r.tag = kPhaseExit;
    r.payload = uint32_t(Phase::Jit);
    r.phase = uint8_t(Phase::Interpreter);
    log.events.push_back(r);
    r.cyclesFp = 1200;
    r.tag = kTraceLeave;
    r.payload = 7;
    log.events.push_back(r);
    r.cyclesFp = 1400;
    r.tag = kPhaseEnter;
    r.payload = uint32_t(Phase::Gc);
    r.phase = uint8_t(Phase::Gc);
    log.events.push_back(r); // left open: run was cut mid-phase

    report::ChromeTraceBuilder builder;
    builder.addRun("wl", "vm", log);
    EXPECT_EQ(builder.droppedEvents(), 6u);
    report::Json doc = builder.toJson();

    size_t begins = 0, ends = 0, synth = 0;
    for (const report::Json &ev : doc.get("traceEvents")->items()) {
        const std::string &ph = ev.get("ph")->asString();
        if (ph == "B")
            ++begins;
        if (ph == "E")
            ++ends;
        const report::Json *args = ev.get("args");
        if (args && args->get("synth"))
            ++synth;
    }
    EXPECT_EQ(begins, ends);
    EXPECT_EQ(synth, 3u); // two synthetic begins + one synthetic end
}

TEST(ChromeExport, CounterTracksPresent)
{
    driver::RunOptions o = smallJitRun();
    o.traceBufferEvents = 1u << 16;
    driver::RunResult r = driver::runWorkload(o);
    ASSERT_FALSE(r.trace.counters.empty());

    report::ChromeTraceBuilder builder;
    builder.addRun(o.workload, driver::vmKindName(o.vm), r.trace);
    report::Json doc = builder.toJson();
    size_t heap = 0, cache = 0;
    for (const report::Json &ev : doc.get("traceEvents")->items()) {
        if (ev.get("ph")->asString() != "C")
            continue;
        const std::string &name = ev.get("name")->asString();
        if (name == "heap_bytes")
            ++heap;
        if (name == "trace_cache_bytes")
            ++cache;
    }
    EXPECT_EQ(heap, r.trace.counters.size());
    EXPECT_EQ(cache, r.trace.counters.size());
}

TEST(ChromeExport, FilterByTagPhaseAndCycleRange)
{
    driver::RunOptions o = smallJitRun();
    o.traceBufferEvents = 1u << 16;
    driver::RunResult r = driver::runWorkload(o);
    report::ChromeTraceBuilder builder;
    builder.addRun(o.workload, driver::vmKindName(o.vm), r.trace);
    report::Json doc = builder.toJson();

    report::TraceFilter byTag;
    byTag.tag = int32_t(kDeopt);
    report::Json deopts = report::filterChromeTrace(doc, byTag);
    size_t n = 0;
    for (const report::Json &ev : deopts.get("traceEvents")->items()) {
        if (ev.get("ph")->asString() == "M")
            continue;
        EXPECT_EQ(ev.get("args")->get("tag")->asUInt(),
                  uint64_t(kDeopt));
        ++n;
    }
    EXPECT_EQ(n, uint64_t(r.deopts));

    report::TraceFilter byRange;
    byRange.cycleMin = 0;
    byRange.cycleMax = uint64_t(r.cycles / 2);
    report::Json half = report::filterChromeTrace(doc, byRange);
    ASSERT_GT(half.get("traceEvents")->size(), 0u);
    for (const report::Json &ev : half.get("traceEvents")->items()) {
        if (ev.get("ph")->asString() == "M")
            continue;
        EXPECT_LE(ev.get("args")->get("cfp")->asUInt() / sim::kCycleFp,
                  byRange.cycleMax);
    }

    report::TraceFilter byPhase;
    byPhase.phase = "jit";
    report::Json jitOnly = report::filterChromeTrace(doc, byPhase);
    for (const report::Json &ev : jitOnly.get("traceEvents")->items()) {
        if (ev.get("ph")->asString() == "M")
            continue;
        EXPECT_EQ(ev.get("args")->get("phase")->asString(), "jit");
    }

    // The dump renderer accepts any of these documents.
    EXPECT_FALSE(report::dumpChromeTrace(deopts).empty());
}

TEST(ChromeExport, SummarizeMatchesProfilerTotals)
{
    driver::RunOptions o = smallJitRun();
    o.traceBufferEvents = 1u << 16;
    driver::RunResult r = driver::runWorkload(o);
    ASSERT_EQ(r.trace.droppedEvents, 0u);

    // Expected per-phase enter counts straight from the raw records.
    uint64_t rawJitEnters = 0, rawGcEnters = 0;
    for (const TraceRecord &rec : r.trace.events) {
        if (rec.tag == kPhaseEnter) {
            if (rec.payload == uint32_t(Phase::Jit))
                ++rawJitEnters;
            if (rec.payload == uint32_t(Phase::Gc))
                ++rawGcEnters;
        }
    }

    report::ChromeTraceBuilder builder;
    builder.addRun(o.workload, driver::vmKindName(o.vm), r.trace);
    report::Json summary =
        report::summarizeChromeTrace(builder.toJson(), 5);

    const report::Json *phases = summary.get("phase_events");
    ASSERT_NE(phases, nullptr);
    const report::Json *jit = phases->get("jit");
    ASSERT_NE(jit, nullptr);
    // Every trace execution enters the Jit phase exactly once, so the
    // summarized enter count must equal the event profiler's
    // trace-enter total (the phase profiler's bucket switches).
    EXPECT_EQ(jit->get("enters")->asUInt(), r.traceEnters);
    EXPECT_EQ(jit->get("enters")->asUInt(), rawJitEnters);
    EXPECT_EQ(jit->get("exits")->asUInt(), rawJitEnters);

    // This run may be too small to trigger a collection; when it does,
    // the summarized gc enters must equal the event profiler's totals.
    EXPECT_EQ(rawGcEnters, r.gcMinor + r.gcMajor);
    const report::Json *gc = phases->get("gc");
    if (rawGcEnters > 0) {
        ASSERT_NE(gc, nullptr);
        EXPECT_EQ(gc->get("enters")->asUInt(), rawGcEnters);
    }

    const report::Json *instants = summary.get("instants");
    ASSERT_NE(instants, nullptr);
    const report::Json *deopt = instants->get("deopt");
    ASSERT_NE(deopt, nullptr);
    EXPECT_EQ(deopt->asUInt(), r.deopts);

    EXPECT_FALSE(report::formatTraceSummary(summary).empty());
}

TEST(ChromeExport, ProvenanceHeadersRoundTrip)
{
    driver::RunOptions o = smallJitRun();
    o.traceBufferEvents = 1u << 16;
    driver::RunResult r = driver::runWorkload(o);

    report::ChromeTraceBuilder builder;
    report::Json docProv = report::Json::object();
    docProv.set("report", report::Json("unit"));
    docProv.set("schema_version",
                report::Json(report::MetricsRegistry::kSchemaVersion));
    docProv.set("tier_mode",
                report::Json(vm::tierModeName(o.tierMode)));
    docProv.set("sampler_interval_cycles", report::Json(uint64_t(5000)));
    builder.setProvenance(std::move(docProv));
    report::Json runProv = report::runProvenance(o);
    builder.addRun(o.workload, driver::vmKindName(o.vm), r.trace,
                   &runProv);

    // Serialize and reparse: provenance must survive the round trip
    // field for field, at both the document and the run level.
    std::string err;
    report::Json parsed =
        report::Json::parse(builder.toJson().dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;
    const report::Json *other = parsed.get("otherData");
    ASSERT_NE(other, nullptr);
    const report::Json *prov = other->get("provenance");
    ASSERT_NE(prov, nullptr);
    EXPECT_EQ(prov->get("report")->asString(), "unit");
    EXPECT_EQ(prov->get("schema_version")->asUInt(),
              uint64_t(report::MetricsRegistry::kSchemaVersion));
    EXPECT_EQ(prov->get("tier_mode")->asString(),
              std::string(vm::tierModeName(o.tierMode)));
    EXPECT_EQ(prov->get("sampler_interval_cycles")->asUInt(), 5000u);

    const report::Json *runs = other->get("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->size(), 1u);
    const report::Json *rp = runs->items()[0].get("provenance");
    ASSERT_NE(rp, nullptr);
    EXPECT_EQ(rp->get("workload")->asString(), o.workload);
    EXPECT_EQ(rp->get("vm")->asString(),
              std::string(driver::vmKindName(o.vm)));
    EXPECT_EQ(rp->get("loop_threshold")->asUInt(), o.loopThreshold);
    EXPECT_EQ(rp->get("tier_mode")->asString(),
              std::string(vm::tierModeName(o.tierMode)));

    // Filtering preserves the header (it only rewrites traceEvents).
    report::TraceFilter f;
    f.tag = int32_t(kDeopt);
    report::Json filtered = report::filterChromeTrace(parsed, f);
    const report::Json *fo = filtered.get("otherData");
    ASSERT_NE(fo, nullptr);
    ASSERT_NE(fo->get("provenance"), nullptr);
    EXPECT_EQ(fo->get("provenance")->get("report")->asString(), "unit");
}

// ---- Corrupt / truncated input handling (see ISSUE satellite) --------

TEST(CorruptInput, TruncatedFileFailsParseWithClearError)
{
    // A real export, cut mid-record — what a crashed or disk-full run
    // leaves behind. The parser must report an error (which xlvm-trace
    // turns into a nonzero exit), not crash or return a partial doc.
    driver::RunOptions o = smallJitRun();
    o.traceBufferEvents = 1u << 16;
    driver::RunResult r = driver::runWorkload(o);
    report::ChromeTraceBuilder builder;
    builder.addRun(o.workload, driver::vmKindName(o.vm), r.trace);
    std::string full = builder.toJson().dump(2);

    // Cut inside the middle of an event record: find an interior
    // "args" key and truncate right after it.
    size_t cut = full.find("\"args\"", full.size() / 2);
    ASSERT_NE(cut, std::string::npos);
    std::string truncated = full.substr(0, cut + 3);

    std::string err;
    report::Json doc = report::Json::parse(truncated, &err);
    EXPECT_FALSE(err.empty());

    // Truncation at every prefix length around a record boundary must
    // also fail cleanly (never crash, never silently succeed).
    for (size_t len = cut > 40 ? cut - 40 : 0; len < cut; len += 7) {
        std::string perr;
        report::Json::parse(full.substr(0, len), &perr);
        EXPECT_FALSE(perr.empty()) << "prefix length " << len;
    }
}

TEST(CorruptInput, SummarizeToleratesRecordsWithMissingFields)
{
    // Parseable JSON whose events lost fields (hand-edited or produced
    // by a foreign tool), or carry retired tag numbers (16 and 22, from
    // an older build): summarize and the text renderer must not crash
    // and must keep the well-formed events visible.
    const char *text =
        "{\"traceEvents\": ["
        "{\"ph\": \"B\", \"args\": {\"tag\": 1, \"payload\": 2}},"
        "{\"name\": \"jit\", \"ph\": \"E\","
        " \"args\": {\"tag\": 2, \"payload\": 2}},"
        "{\"ph\": \"i\"},"
        "{\"name\": \"deopt\", \"ph\": \"i\", \"args\": {\"tag\": 9}},"
        "{\"name\": \"memo_hit\", \"ph\": \"i\","
        " \"args\": {\"tag\": 16, \"payload\": 3}},"
        "{\"name\": \"superblock_diverge\", \"ph\": \"i\","
        " \"args\": {\"tag\": 22}},"
        "{\"ph\": \"C\"}"
        "]}";
    std::string err;
    report::Json doc = report::Json::parse(text, &err);
    ASSERT_TRUE(err.empty()) << err;

    report::Json summary = report::summarizeChromeTrace(doc, 5);
    EXPECT_EQ(summary.get("total_events")->asUInt(), 7u);
    // Retired tags stay visible under their numeric label.
    const report::Json *instants = summary.get("instants");
    ASSERT_NE(instants, nullptr);
    ASSERT_NE(instants->get("tag<16>"), nullptr);
    EXPECT_EQ(instants->get("tag<16>")->asUInt(), 1u);
    ASSERT_NE(instants->get("tag<22>"), nullptr);
    EXPECT_EQ(instants->get("tag<22>")->asUInt(), 1u);
    EXPECT_EQ(summary.get("counter_samples")->asUInt(), 1u);
    // The nameless phase event lands in the "?" bucket.
    const report::Json *phases = summary.get("phase_events");
    ASSERT_NE(phases, nullptr);
    ASSERT_NE(phases->get("?"), nullptr);
    EXPECT_EQ(phases->get("?")->get("enters")->asUInt(), 1u);
    ASSERT_NE(phases->get("jit"), nullptr);
    EXPECT_EQ(phases->get("jit")->get("exits")->asUInt(), 1u);

    // The renderer handles the sparse summary without crashing.
    EXPECT_FALSE(report::formatTraceSummary(summary).empty());
    // So does the line dumper on the original sparse events.
    report::dumpChromeTrace(doc);
}

TEST(CorruptInput, SummarizeJsonOutputReparsesToSameTotals)
{
    // The `xlvm-trace summarize --json` contract: the emitted JSON
    // reparses, and its totals equal the PhaseProfiler's totals from
    // the run itself (not merely the in-memory Json object's).
    driver::RunOptions o = smallJitRun();
    o.traceBufferEvents = 1u << 16;
    driver::RunResult r = driver::runWorkload(o);
    ASSERT_EQ(r.trace.droppedEvents, 0u);
    report::ChromeTraceBuilder builder;
    builder.addRun(o.workload, driver::vmKindName(o.vm), r.trace);
    report::Json summary =
        report::summarizeChromeTrace(builder.toJson(), 10);

    std::string err;
    report::Json reparsed = report::Json::parse(summary.dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;

    const report::Json *phases = reparsed.get("phase_events");
    ASSERT_NE(phases, nullptr);
    const report::Json *jit = phases->get("jit");
    ASSERT_NE(jit, nullptr);
    EXPECT_EQ(jit->get("enters")->asUInt(), r.traceEnters);
    const report::Json *gc = phases->get("gc");
    if (r.gcMinor + r.gcMajor > 0) {
        ASSERT_NE(gc, nullptr);
        EXPECT_EQ(gc->get("enters")->asUInt(), r.gcMinor + r.gcMajor);
    }
    const report::Json *instants = reparsed.get("instants");
    ASSERT_NE(instants, nullptr);
    ASSERT_NE(instants->get("deopt"), nullptr);
    EXPECT_EQ(instants->get("deopt")->asUInt(), r.deopts);
}

// ---- Differential: tracing must not perturb the simulation ----------

/** CSV rows minus the tracer's own accounting (section "tracer" and
 *  the config knob), which legitimately differ between the two runs. */
std::string
csvWithoutTracerRows(const report::MetricsRegistry &reg)
{
    std::string csv = reg.toCsv();
    std::string out;
    size_t start = 0;
    while (start < csv.size()) {
        size_t end = csv.find('\n', start);
        if (end == std::string::npos)
            end = csv.size();
        std::string line = csv.substr(start, end - start);
        if (line.find(",tracer,") == std::string::npos &&
            line.find(",trace_buffer_events,") == std::string::npos)
            out += line + "\n";
        start = end + 1;
    }
    return out;
}

TEST(Differential, TracerOnVsOffCountersBitIdentical)
{
    driver::RunOptions off = smallJitRun();
    driver::RunOptions on = smallJitRun();
    on.traceBufferEvents = 1u << 16;

    driver::RunResult roff = driver::runWorkload(off);
    driver::RunResult ron = driver::runWorkload(on);
    ASSERT_TRUE(roff.completed);
    ASSERT_TRUE(ron.completed);
    ASSERT_GT(ron.trace.recordedEvents, 0u);
    EXPECT_EQ(roff.trace.recordedEvents, 0u);

    // Program output and exact machine counters must not move.
    EXPECT_EQ(roff.output, ron.output);
    EXPECT_EQ(roff.instructions, ron.instructions);
    EXPECT_EQ(roff.cycles, ron.cycles);
    for (uint32_t p = 0; p < kNumPhases; ++p) {
        const sim::PerfCounters &a = roff.phaseCounters[p];
        const sim::PerfCounters &b = ron.phaseCounters[p];
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.cyclesFp, b.cyclesFp);
        EXPECT_EQ(a.branches, b.branches);
        EXPECT_EQ(a.mispredicts, b.mispredicts);
        EXPECT_EQ(a.loads, b.loads);
        EXPECT_EQ(a.stores, b.stores);
        EXPECT_EQ(a.icacheMisses, b.icacheMisses);
        EXPECT_EQ(a.dcacheMisses, b.dcacheMisses);
        EXPECT_EQ(a.annotations, b.annotations);
    }

    // And the full golden-style report agrees row for row once the
    // tracer's own accounting section is set aside.
    report::MetricsRegistry regOff("diff"), regOn("diff");
    regOff.addRun(off, roff);
    regOn.addRun(on, ron);
    EXPECT_EQ(csvWithoutTracerRows(regOff), csvWithoutTracerRows(regOn));
}

// ---- Phase profiler underflow rejection (see ISSUE satellite) --------

TEST(PhaseProfilerUnderflow, ExitOnBottomedStackIsCountedNotPopped)
{
    Fixture f;
    PhaseProfiler phases(f.bus);
    sim::BlockEmitter e(f.core, 0x400000);

    e.annot(kPhaseExit, uint32_t(Phase::Interpreter)); // malformed
    EXPECT_EQ(phases.phaseUnderflows(), 1u);
    EXPECT_EQ(phases.stackDepth(), 1u);
    EXPECT_EQ(phases.currentPhase(), Phase::Interpreter);

    // The profiler keeps working normally afterwards.
    e.annot(kPhaseEnter, uint32_t(Phase::Jit));
    e.alu(4);
    e.annot(kPhaseExit, uint32_t(Phase::Jit));
    e.annot(kPhaseExit, uint32_t(Phase::Jit)); // malformed again
    EXPECT_EQ(phases.phaseUnderflows(), 2u);
    EXPECT_EQ(phases.currentPhase(), Phase::Interpreter);
    EXPECT_EQ(phases.phaseCounters(Phase::Jit).instructions, 4u);
}

} // namespace
} // namespace xlvm
