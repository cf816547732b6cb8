#include "report/trace_export.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <vector>

#include "sim/core.h"
#include "xlayer/phase.h"

namespace xlvm {
namespace report {

namespace {

/** Thread ids within one run's process. */
constexpr int kTidPhases = 0;
constexpr int kTidTraces = 1;
constexpr int kTidEvents = 2;

/** Timeline entries kept by summarize before truncation. */
constexpr size_t kTimelineCap = 200;

double
tsMicros(uint64_t cycles_fp, double freq_ghz)
{
    return double(cycles_fp) / (double(sim::kCycleFp) * freq_ghz * 1e3);
}

Json
metaEvent(int pid, int tid, const char *kind, const std::string &name)
{
    Json ev = Json::object();
    ev.set("name", Json(kind));
    ev.set("ph", Json("M"));
    ev.set("pid", Json(pid));
    ev.set("tid", Json(tid));
    Json args = Json::object();
    args.set("name", Json(name));
    ev.set("args", std::move(args));
    return ev;
}

Json
recordEvent(const char *ph, const std::string &name, int pid, int tid,
            uint64_t cycles_fp, double freq_ghz, uint32_t tag,
            uint32_t payload, const char *phase, bool synth = false)
{
    Json ev = Json::object();
    ev.set("name", Json(name));
    ev.set("ph", Json(ph));
    if (ph[0] == 'i')
        ev.set("s", Json("t")); // thread-scoped instant
    ev.set("ts", Json(tsMicros(cycles_fp, freq_ghz)));
    ev.set("pid", Json(pid));
    ev.set("tid", Json(tid));
    Json args = Json::object();
    args.set("tag", Json(uint64_t(tag)));
    args.set("payload", Json(uint64_t(payload)));
    args.set("phase", Json(phase));
    args.set("cfp", Json(cycles_fp));
    if (synth)
        args.set("synth", Json(uint64_t(1)));
    ev.set("args", std::move(args));
    return ev;
}

std::string
traceName(uint32_t trace_id)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "trace#%u", trace_id);
    return buf;
}

const Json *
eventArg(const Json &ev, const char *key)
{
    const Json *args = ev.get("args");
    return args ? args->get(key) : nullptr;
}

bool
isSynthetic(const Json &ev)
{
    const Json *s = eventArg(ev, "synth");
    return s && s->asUInt() != 0;
}

} // namespace

const char *
annotTagName(uint32_t tag)
{
    using namespace xlayer;
    switch (tag) {
      case kPhaseEnter:
        return "phase_enter";
      case kPhaseExit:
        return "phase_exit";
      case kDispatch:
        return "dispatch";
      case kLoopCompiled:
        return "loop_compiled";
      case kBridgeCompiled:
        return "bridge_compiled";
      case kTraceAborted:
        return "trace_aborted";
      case kTraceEnter:
        return "trace_enter";
      case kTraceLeave:
        return "trace_leave";
      case kDeopt:
        return "deopt";
      case kGcMinor:
        return "gc_minor";
      case kGcMajor:
        return "gc_major";
      case kAotEnter:
        return "aot_enter";
      case kAotExit:
        return "aot_exit";
      case kIrNode:
        return "ir_node";
      case kAppEvent:
        return "app_event";
      case kTierUp:
        return "tier_up";
      case kTier1Compile:
        return "tier1_compile";
      default:
        return nullptr;
    }
}

std::string
annotTagLabel(uint32_t tag)
{
    const char *name = annotTagName(tag);
    if (name)
        return name;
    // Tags minted after this build of the tool: keep them visible and
    // distinguishable rather than collapsing them into one "unknown".
    return "tag<" + std::to_string(tag) + ">";
}

int32_t
annotTagFromString(const std::string &s)
{
    if (s.empty())
        return -1;
    if (s.find_first_not_of("0123456789") == std::string::npos)
        return int32_t(std::strtoul(s.c_str(), nullptr, 10));
    for (uint32_t tag = 1; tag < 32; ++tag) {
        if (s == annotTagLabel(tag))
            return int32_t(tag);
    }
    return -1;
}

ChromeTraceBuilder::ChromeTraceBuilder(double frequency_ghz)
    : freqGhz_(frequency_ghz),
      events_(Json::array()),
      runsMeta_(Json::array())
{
}

void
ChromeTraceBuilder::setProvenance(Json provenance)
{
    provenance_ = std::move(provenance);
    hasProvenance_ = true;
}

int
ChromeTraceBuilder::addRun(const std::string &workload,
                           const std::string &vm,
                           const xlayer::TraceLog &log,
                           const Json *provenance)
{
    using namespace xlayer;

    const int pid = nextPid_++;
    dropped_ += log.droppedEvents;

    events_.push(metaEvent(pid, kTidPhases, "process_name",
                           workload + " @ " + vm));
    events_.push(metaEvent(pid, kTidPhases, "thread_name", "phases"));
    events_.push(metaEvent(pid, kTidTraces, "thread_name", "traces"));
    events_.push(metaEvent(pid, kTidEvents, "thread_name", "events"));

    Json meta = Json::object();
    meta.set("pid", Json(pid));
    meta.set("workload", Json(workload));
    meta.set("vm", Json(vm));
    meta.set("recorded_events", Json(log.recordedEvents));
    meta.set("dropped_events", Json(log.droppedEvents));
    meta.set("capacity_events", Json(log.capacityEvents));
    meta.set("counter_samples", Json(uint64_t(log.counters.size())));
    meta.set("dropped_counter_samples", Json(log.droppedCounters));
    if (provenance)
        meta.set("provenance", *provenance);
    runsMeta_.push(std::move(meta));

    const uint64_t firstFp =
        log.events.empty() ? 0 : log.events.front().cyclesFp;
    uint64_t lastFp = firstFp;

    // Replay the phase and trace nesting so head-truncated logs (ring
    // wraparound dropped the matching begins) still produce a balanced
    // B/E document: unmatched exits get a synthetic begin at the first
    // surviving timestamp, unmatched begins a synthetic end at the last.
    std::vector<uint32_t> phaseStack;
    std::vector<uint32_t> traceStack;

    for (const TraceRecord &r : log.events) {
        lastFp = r.cyclesFp;
        const char *phaseStr = phaseName(Phase(r.phase));
        switch (r.tag) {
          case kPhaseEnter:
            phaseStack.push_back(r.payload);
            events_.push(recordEvent("B", phaseName(Phase(r.payload)),
                                     pid, kTidPhases, r.cyclesFp,
                                     freqGhz_, r.tag, r.payload,
                                     phaseName(Phase(r.payload))));
            break;
          case kPhaseExit:
            if (phaseStack.empty()) {
                events_.push(recordEvent(
                    "B", phaseName(Phase(r.payload)), pid, kTidPhases,
                    firstFp, freqGhz_, kPhaseEnter, r.payload,
                    phaseName(Phase(r.payload)), true));
            } else {
                phaseStack.pop_back();
            }
            events_.push(recordEvent("E", phaseName(Phase(r.payload)),
                                     pid, kTidPhases, r.cyclesFp,
                                     freqGhz_, r.tag, r.payload,
                                     phaseName(Phase(r.payload))));
            break;
          case kTraceEnter:
            traceStack.push_back(r.payload);
            events_.push(recordEvent("B", traceName(r.payload), pid,
                                     kTidTraces, r.cyclesFp, freqGhz_,
                                     r.tag, r.payload, phaseStr));
            break;
          case kTraceLeave:
            if (traceStack.empty()) {
                events_.push(recordEvent("B", traceName(r.payload), pid,
                                         kTidTraces, firstFp, freqGhz_,
                                         kTraceEnter, r.payload,
                                         phaseStr, true));
            } else {
                traceStack.pop_back();
            }
            events_.push(recordEvent("E", traceName(r.payload), pid,
                                     kTidTraces, r.cyclesFp, freqGhz_,
                                     r.tag, r.payload, phaseStr));
            break;
          default:
            events_.push(recordEvent("i", annotTagLabel(r.tag), pid,
                                     kTidEvents, r.cyclesFp, freqGhz_,
                                     r.tag, r.payload, phaseStr));
            break;
        }
    }

    while (!traceStack.empty()) {
        uint32_t id = traceStack.back();
        traceStack.pop_back();
        events_.push(recordEvent("E", traceName(id), pid, kTidTraces,
                                 lastFp, freqGhz_, xlayer::kTraceLeave,
                                 id, "", true));
    }
    while (!phaseStack.empty()) {
        uint32_t p = phaseStack.back();
        phaseStack.pop_back();
        events_.push(recordEvent("E", phaseName(Phase(p)), pid,
                                 kTidPhases, lastFp, freqGhz_,
                                 xlayer::kPhaseExit, p,
                                 phaseName(Phase(p)), true));
    }

    for (const TraceCounterSample &s : log.counters) {
        Json heap = Json::object();
        heap.set("name", Json("heap_bytes"));
        heap.set("ph", Json("C"));
        heap.set("ts", Json(tsMicros(s.cyclesFp, freqGhz_)));
        heap.set("pid", Json(pid));
        heap.set("tid", Json(kTidPhases));
        Json hargs = Json::object();
        hargs.set("bytes", Json(s.heapBytes));
        hargs.set("cfp", Json(s.cyclesFp));
        heap.set("args", std::move(hargs));
        events_.push(std::move(heap));

        Json cache = Json::object();
        cache.set("name", Json("trace_cache_bytes"));
        cache.set("ph", Json("C"));
        cache.set("ts", Json(tsMicros(s.cyclesFp, freqGhz_)));
        cache.set("pid", Json(pid));
        cache.set("tid", Json(kTidPhases));
        Json cargs = Json::object();
        cargs.set("bytes", Json(s.traceCacheBytes));
        cargs.set("cfp", Json(s.cyclesFp));
        cache.set("args", std::move(cargs));
        events_.push(std::move(cache));
    }

    return pid;
}

Json
ChromeTraceBuilder::toJson() const
{
    Json doc = Json::object();
    doc.set("displayTimeUnit", Json("ms"));
    Json other = Json::object();
    other.set("generator", Json("xlvm"));
    other.set("frequency_ghz", Json(freqGhz_));
    other.set("time_unit", Json("simulated microseconds"));
    if (hasProvenance_)
        other.set("provenance", provenance_);
    other.set("runs", runsMeta_);
    doc.set("otherData", std::move(other));
    doc.set("traceEvents", events_);
    return doc;
}

bool
writeChromeTrace(const Json &doc, const std::string &path,
                 std::string *err)
{
    std::string payload = doc.dump(1) + "\n";
    if (path == "-") {
        std::fwrite(payload.data(), 1, payload.size(), stdout);
        return true;
    }
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) {
        if (err)
            *err = "cannot open " + path + " for writing";
        return false;
    }
    f.write(payload.data(), std::streamsize(payload.size()));
    f.flush();
    if (!f) {
        if (err)
            *err = "write failed for " + path;
        return false;
    }
    return true;
}

Json
filterChromeTrace(const Json &doc, const TraceFilter &f)
{
    Json out = Json::object();
    for (const auto &member : doc.members()) {
        if (member.first != "traceEvents")
            out.set(member.first, member.second);
    }
    Json kept = Json::array();
    const Json *events = doc.get("traceEvents");
    if (events && events->isArray()) {
        for (const Json &ev : events->items()) {
            const Json *ph = ev.get("ph");
            if (ph && ph->asString() == "M") {
                kept.push(ev);
                continue;
            }
            if (f.tag >= 0) {
                const Json *tag = eventArg(ev, "tag");
                if (!tag || tag->asUInt() != uint64_t(f.tag))
                    continue;
            }
            if (!f.phase.empty()) {
                const Json *phase = eventArg(ev, "phase");
                if (!phase || phase->asString() != f.phase)
                    continue;
            }
            if (f.cycleMin != 0 || f.cycleMax != UINT64_MAX) {
                const Json *cfp = eventArg(ev, "cfp");
                if (!cfp)
                    continue;
                uint64_t cycles = cfp->asUInt() / sim::kCycleFp;
                if (cycles < f.cycleMin || cycles > f.cycleMax)
                    continue;
            }
            kept.push(ev);
        }
    }
    out.set("traceEvents", std::move(kept));
    return out;
}

std::string
dumpChromeTrace(const Json &doc)
{
    std::string out;
    const Json *events = doc.get("traceEvents");
    if (!events || !events->isArray())
        return out;
    char buf[160];
    for (const Json &ev : events->items()) {
        const Json *ph = ev.get("ph");
        const Json *name = ev.get("name");
        const Json *pid = ev.get("pid");
        if (!ph || !name || !pid)
            continue;
        if (ph->asString() == "M") {
            const Json *arg = eventArg(ev, "name");
            std::snprintf(buf, sizeof(buf), "pid=%llu M %s=%s\n",
                          (unsigned long long)pid->asUInt(),
                          name->asString().c_str(),
                          arg ? arg->asString().c_str() : "");
            out += buf;
            continue;
        }
        const Json *ts = ev.get("ts");
        const Json *tag = eventArg(ev, "tag");
        const Json *payload = eventArg(ev, "payload");
        const Json *phase = eventArg(ev, "phase");
        const Json *cfp = eventArg(ev, "cfp");
        const Json *bytes = eventArg(ev, "bytes");
        std::snprintf(buf, sizeof(buf),
                      "pid=%llu ts=%.3fus %s %s", //
                      (unsigned long long)pid->asUInt(),
                      ts ? ts->asDouble() : 0.0, ph->asString().c_str(),
                      name->asString().c_str());
        out += buf;
        if (tag) {
            std::snprintf(buf, sizeof(buf), " tag=%llu payload=%llu",
                          (unsigned long long)tag->asUInt(),
                          (unsigned long long)
                              (payload ? payload->asUInt() : 0));
            out += buf;
        }
        if (bytes) {
            std::snprintf(buf, sizeof(buf), " bytes=%llu",
                          (unsigned long long)bytes->asUInt());
            out += buf;
        }
        if (phase && !phase->asString().empty())
            out += " phase=" + phase->asString();
        if (cfp) {
            std::snprintf(buf, sizeof(buf), " cycles=%llu",
                          (unsigned long long)(cfp->asUInt() /
                                               sim::kCycleFp));
            out += buf;
        }
        if (isSynthetic(ev))
            out += " synth=1";
        out.push_back('\n');
    }
    return out;
}

Json
summarizeChromeTrace(const Json &doc, size_t top_n)
{
    using namespace xlayer;

    Json summary = Json::object();

    uint64_t droppedTotal = 0;
    Json runs = Json::array();
    if (const Json *other = doc.get("otherData")) {
        if (const Json *r = other->get("runs")) {
            runs = *r;
            for (const Json &run : r->items()) {
                if (const Json *d = run.get("dropped_events"))
                    droppedTotal += d->asUInt();
            }
        }
    }
    summary.set("runs", std::move(runs));

    std::map<std::string, std::pair<uint64_t, uint64_t>> phaseCounts;
    std::map<std::string, uint64_t> instantCounts;
    std::map<uint64_t, uint64_t> guardFailures;
    Json timeline = Json::array();
    uint64_t timelineTruncated = 0;
    uint64_t counterSamples = 0;
    uint64_t totalEvents = 0;

    const Json *events = doc.get("traceEvents");
    if (events && events->isArray()) {
        for (const Json &ev : events->items()) {
            const Json *phj = ev.get("ph");
            if (!phj)
                continue;
            const std::string &ph = phj->asString();
            if (ph == "M")
                continue;
            ++totalEvents;
            if (ph == "C") {
                ++counterSamples;
                continue;
            }
            if (isSynthetic(ev))
                continue;
            const Json *tagj = eventArg(ev, "tag");
            uint32_t tag = tagj ? uint32_t(tagj->asUInt()) : 0;
            const Json *payloadj = eventArg(ev, "payload");
            uint64_t payload = payloadj ? payloadj->asUInt() : 0;

            if (tag == kPhaseEnter || tag == kPhaseExit) {
                // Corrupt/hand-edited documents may drop the name;
                // bucket those events instead of crashing on them.
                const Json *namej = ev.get("name");
                auto &pc = phaseCounts[namej ? namej->asString()
                                             : std::string("?")];
                if (tag == kPhaseEnter)
                    ++pc.first;
                else
                    ++pc.second;
                continue;
            }
            if (ph == "i")
                ++instantCounts[annotTagLabel(tag)];
            if (tag == kDeopt)
                ++guardFailures[payload];
            if (tag == kLoopCompiled || tag == kBridgeCompiled ||
                tag == kTraceAborted || tag == kDeopt ||
                tag == kTierUp || tag == kTier1Compile) {
                if (timeline.size() < kTimelineCap) {
                    Json entry = Json::object();
                    const Json *ts = ev.get("ts");
                    entry.set("ts_us", Json(ts ? ts->asDouble() : 0.0));
                    entry.set("event", Json(annotTagLabel(tag)));
                    entry.set("payload", Json(payload));
                    timeline.push(std::move(entry));
                } else {
                    ++timelineTruncated;
                }
            }
        }
    }

    Json phases = Json::object();
    for (const auto &pc : phaseCounts) {
        Json counts = Json::object();
        counts.set("enters", Json(pc.second.first));
        counts.set("exits", Json(pc.second.second));
        phases.set(pc.first, std::move(counts));
    }
    summary.set("phase_events", std::move(phases));

    Json instants = Json::object();
    for (const auto &ic : instantCounts)
        instants.set(ic.first, Json(ic.second));
    summary.set("instants", std::move(instants));

    std::vector<std::pair<uint64_t, uint64_t>> guards(
        guardFailures.begin(), guardFailures.end());
    std::sort(guards.begin(), guards.end(),
              [](const auto &a, const auto &b) {
                  return a.second != b.second ? a.second > b.second
                                              : a.first < b.first;
              });
    if (guards.size() > top_n)
        guards.resize(top_n);
    Json topGuards = Json::array();
    for (const auto &g : guards) {
        Json entry = Json::object();
        entry.set("guard", Json(g.first));
        entry.set("count", Json(g.second));
        topGuards.push(std::move(entry));
    }
    summary.set("top_guard_failures", std::move(topGuards));

    summary.set("compile_deopt_timeline", std::move(timeline));
    summary.set("timeline_truncated", Json(timelineTruncated));
    summary.set("counter_samples", Json(counterSamples));
    summary.set("total_events", Json(totalEvents));
    summary.set("dropped_events", Json(droppedTotal));
    return summary;
}

std::string
formatTraceSummary(const Json &summary)
{
    std::string out;
    char buf[256];

    const Json *runs = summary.get("runs");
    std::snprintf(buf, sizeof(buf), "runs: %zu\n",
                  runs ? runs->size() : size_t(0));
    out += buf;
    if (runs) {
        for (const Json &run : runs->items()) {
            auto u = [&run](const char *k) -> unsigned long long {
                const Json *v = run.get(k);
                return v ? (unsigned long long)v->asUInt() : 0;
            };
            auto s = [&run](const char *k) -> std::string {
                const Json *v = run.get(k);
                return v ? v->asString() : std::string();
            };
            std::snprintf(buf, sizeof(buf),
                          "  pid %llu: %s @ %s  recorded=%llu "
                          "dropped=%llu capacity=%llu\n",
                          u("pid"), s("workload").c_str(),
                          s("vm").c_str(), u("recorded_events"),
                          u("dropped_events"), u("capacity_events"));
            out += buf;
        }
    }

    out += "phase events (enter/exit):\n";
    if (const Json *phases = summary.get("phase_events")) {
        for (const auto &m : phases->members()) {
            auto pu = [&m](const char *k) -> unsigned long long {
                const Json *v = m.second.get(k);
                return v ? (unsigned long long)v->asUInt() : 0;
            };
            std::snprintf(buf, sizeof(buf), "  %-10s %llu/%llu\n",
                          m.first.c_str(), pu("enters"), pu("exits"));
            out += buf;
        }
    }

    out += "instant events:\n";
    if (const Json *instants = summary.get("instants")) {
        for (const auto &m : instants->members()) {
            std::snprintf(buf, sizeof(buf), "  %-16s %llu\n",
                          m.first.c_str(),
                          (unsigned long long)m.second.asUInt());
            out += buf;
        }
    }

    if (const Json *guards = summary.get("top_guard_failures")) {
        if (guards->size() > 0) {
            out += "top guard failures:\n";
            for (const Json &g : guards->items()) {
                const Json *id = g.get("guard");
                const Json *n = g.get("count");
                std::snprintf(
                    buf, sizeof(buf), "  guard %llu: %llu\n",
                    (unsigned long long)(id ? id->asUInt() : 0),
                    (unsigned long long)(n ? n->asUInt() : 0));
                out += buf;
            }
        }
    }

    if (const Json *tl = summary.get("compile_deopt_timeline")) {
        if (tl->size() > 0) {
            std::snprintf(buf, sizeof(buf),
                          "compile/deopt timeline (first %zu):\n",
                          tl->size());
            out += buf;
            for (const Json &e : tl->items()) {
                const Json *ts = e.get("ts_us");
                const Json *name = e.get("event");
                const Json *payload = e.get("payload");
                std::snprintf(
                    buf, sizeof(buf), "  %12.3fus %-16s #%llu\n",
                    ts ? ts->asDouble() : 0.0,
                    name ? name->asString().c_str() : "?",
                    (unsigned long long)
                        (payload ? payload->asUInt() : 0));
                out += buf;
            }
            const Json *trunc = summary.get("timeline_truncated");
            if (trunc && trunc->asUInt() > 0) {
                std::snprintf(buf, sizeof(buf),
                              "  ... %llu more entries not shown\n",
                              (unsigned long long)trunc->asUInt());
                out += buf;
            }
        }
    }

    auto total = [&summary](const char *k) -> unsigned long long {
        const Json *v = summary.get(k);
        return v ? (unsigned long long)v->asUInt() : 0;
    };
    std::snprintf(buf, sizeof(buf),
                  "events: %llu  counter samples: %llu  dropped: %llu\n",
                  total("total_events"), total("counter_samples"),
                  total("dropped_events"));
    out += buf;
    return out;
}

} // namespace report
} // namespace xlvm
