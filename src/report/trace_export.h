/**
 * @file
 * Chrome trace-event export and inspection for streamed event traces.
 *
 * ChromeTraceBuilder turns one or more runs' xlayer::TraceLog into a
 * single Chrome trace-event / Perfetto JSON document (open it in
 * ui.perfetto.dev or chrome://tracing):
 *
 *  - each run becomes one process (pid), named "<workload> @ <vm>";
 *  - phase transitions become B/E duration events on the "phases"
 *    thread; trace entry/exit become B/E events on the "traces" thread;
 *  - GC / compile / abort / deopt become instant events on "events";
 *  - heap bytes and trace-cache size become counter ("C") tracks;
 *  - every event carries full-fidelity args (tag, payload, phase,
 *    exact cyclesFp) so the document round-trips through the
 *    xlvm-trace inspector without loss.
 *
 * Timestamps are simulated microseconds at the core frequency. When a
 * run's ring buffer wrapped, head-truncated duration pairs are repaired
 * with synthetic begin/end events marked args.synth=1 so the document
 * stays balanced for Perfetto.
 *
 * The filter / dump / summarize helpers operate on the exported
 * document itself, so the same JSON file is both the archival trace
 * format and the Perfetto input.
 */

#ifndef XLVM_REPORT_TRACE_EXPORT_H
#define XLVM_REPORT_TRACE_EXPORT_H

#include <cstdint>
#include <string>

#include "report/json.h"
#include "xlayer/tracer.h"

namespace xlvm {
namespace report {

/** xlayer::annotTagName, with unknown tags rendered as "tag<N>" so
 *  records from newer engines stay visible in summaries instead of being
 *  collapsed. */
std::string annotTagLabel(uint32_t tag);

/** Parse a tag from a name or a decimal number below
 *  xlayer::kNumAnnotTagSlots; -1 if unrecognized. */
int32_t annotTagFromString(const std::string &s);

class ChromeTraceBuilder
{
  public:
    explicit ChromeTraceBuilder(double frequency_ghz = 3.0);

    /**
     * Document-level provenance header (schema version, tier mode,
     * sampler interval, ...), emitted as otherData.provenance so the
     * export is interpretable without the invocation that made it.
     */
    void setProvenance(Json provenance);

    /** Append one run's trace; returns the pid assigned to it. An
     *  optional per-run @p provenance object (workload/VM config) is
     *  embedded in that run's otherData.runs entry. */
    int addRun(const std::string &workload, const std::string &vm,
               const xlayer::TraceLog &log,
               const Json *provenance = nullptr);

    /** Full trace-event document (stable member order). */
    Json toJson() const;

    /** Events lost to ring wraparound, summed over all runs. */
    uint64_t droppedEvents() const { return dropped_; }

  private:
    double freqGhz_;
    int nextPid_ = 0;
    uint64_t dropped_ = 0;
    Json events_;
    Json runsMeta_;
    Json provenance_;
    bool hasProvenance_ = false;
};

/** Serialize @p doc to @p path ("-" = stdout). */
bool writeChromeTrace(const Json &doc, const std::string &path,
                      std::string *err);

/** Event predicate for the inspector commands. */
struct TraceFilter
{
    int32_t tag = -1;     ///< -1 = any tag
    std::string phase;    ///< empty = any phase
    uint64_t cycleMin = 0;
    uint64_t cycleMax = UINT64_MAX;

    bool
    active() const
    {
        return tag >= 0 || !phase.empty() || cycleMin != 0 ||
               cycleMax != UINT64_MAX;
    }
};

/**
 * New document holding only the events matching @p f. Metadata ("M")
 * events are always kept. Counter events carry no tag/phase, so a
 * tag or phase filter drops them; the cycle range applies to all.
 */
Json filterChromeTrace(const Json &doc, const TraceFilter &f);

/** One line per event: ts, pid, ph, name, tag, payload, phase. */
std::string dumpChromeTrace(const Json &doc);

/**
 * Structured summary: per-run metadata, per-phase enter/exit counts
 * (synthetic repair events excluded), instant-event counts, top-N
 * guard failures by deopt payload, and the compile/deopt timeline.
 */
Json summarizeChromeTrace(const Json &doc, size_t top_n = 10);

/** Human-readable rendering of summarizeChromeTrace's result. */
std::string formatTraceSummary(const Json &summary);

} // namespace report
} // namespace xlvm

#endif // XLVM_REPORT_TRACE_EXPORT_H
