#include "report/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "rt/aot_registry.h"
#include "xlayer/phase.h"

namespace xlvm {
namespace report {

bool
targetsFromArgs(int argc, char **argv, const std::string &default_stem,
                std::vector<ReportTarget> *out, std::string *err)
{
    auto parseSpec = [&](const std::string &spec) -> bool {
        ReportTarget t;
        std::string fmt = spec;
        size_t colon = spec.find(':');
        if (colon != std::string::npos) {
            fmt = spec.substr(0, colon);
            t.path = spec.substr(colon + 1);
        }
        if (fmt == "json") {
            t.format = ReportTarget::Format::Json;
        } else if (fmt == "csv") {
            t.format = ReportTarget::Format::Csv;
        } else {
            if (err)
                *err = "unknown report format '" + fmt +
                       "' (expected json or csv)";
            return false;
        }
        if (t.path.empty())
            t.path = default_stem +
                     (t.format == ReportTarget::Format::Json ? ".json"
                                                             : ".csv");
        out->push_back(std::move(t));
        return true;
    };

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--report") == 0) {
            if (i + 1 >= argc) {
                if (err)
                    *err = "--report requires an argument";
                return false;
            }
            if (!parseSpec(argv[++i]))
                return false;
        } else if (std::strncmp(a, "--report=", 9) == 0) {
            if (!parseSpec(a + 9))
                return false;
        }
    }
    return true;
}

MetricsRegistry::MetricsRegistry(std::string report_name)
    : name_(std::move(report_name))
{
}

void
MetricsRegistry::addRun(const driver::RunOptions &opts,
                        const driver::RunResult &r)
{
    Run run;
    run.workload = opts.workload;
    run.vm = driver::vmKindName(opts.vm);
    run.completed = r.completed;
    run.error = r.error;

    std::vector<Metric> &m = run.metrics;
    auto addU = [&m](const char *section, const char *name, uint64_t v) {
        Metric e;
        e.section = section;
        e.name = name;
        e.u = v;
        m.push_back(std::move(e));
    };
    auto addF = [&m](const char *section, const char *name, double v) {
        Metric e;
        e.section = section;
        e.name = name;
        e.isFloat = true;
        e.d = v;
        m.push_back(std::move(e));
    };

    // The effective configuration, so a golden also pins what was run.
    addU("config", "scale", uint64_t(opts.scale));
    addU("config", "loop_threshold", opts.loopThreshold);
    addU("config", "bridge_threshold", opts.bridgeThreshold);
    addU("config", "max_instructions", opts.maxInstructions);
    addU("config", "work_sample_instrs", opts.workSampleInstrs);
    addU("config", "timeline_bin", opts.timelineBin);
    addU("config", "ir_annotations", opts.irAnnotations);
    addU("config", "opt_virtualize", opts.optVirtualize);
    addU("config", "opt_heap_cache", opts.optHeapCache);
    addU("config", "opt_elide_guards", opts.optElideGuards);
    addU("config", "opt_fold_constants", opts.optFoldConstants);
    addU("config", "trace_buffer_events", opts.traceBufferEvents);
    addU("config", "tier_mode", uint64_t(opts.tierMode));
    addU("config", "tier1_threshold", opts.tier1Threshold);
    addU("config", "tier2_threshold", opts.tier2Threshold);
    addU("config", "storm_threshold", opts.stormThreshold);
    addU("config", "blacklist_cooldown", opts.blacklistCooldown);
    addU("config", "compile_budget_ops", opts.compileBudgetOps);
    addU("config", "max_traces", opts.maxTraces);

    // Machine level: whole-run counters and derived ratios (Tables I/II).
    uint64_t totalInstrs = 0;
    {
        // Totals are re-derivable from the per-phase buckets, but the
        // paper's headline numbers are whole-run, so emit them directly.
        sim::PerfCounters total{};
        for (uint32_t p = 0; p < xlayer::kNumPhases; ++p)
            total.accumulate(r.phaseCounters[p]);
        totalInstrs = total.instructions;
        addU("totals", "instructions", total.instructions);
        addU("totals", "cycles_fp", total.cyclesFp);
        addU("totals", "branches", total.branches);
        addU("totals", "cond_branches", total.condBranches);
        addU("totals", "mispredicts", total.mispredicts);
        addU("totals", "loads", total.loads);
        addU("totals", "stores", total.stores);
        addU("totals", "icache_misses", total.icacheMisses);
        addU("totals", "dcache_misses", total.dcacheMisses);
        addU("totals", "annotations", total.annotations);
        addF("totals", "seconds", r.seconds);
        addF("totals", "ipc", r.ipc);
        addF("totals", "branch_mpki", r.branchMpki);
        addF("totals", "branch_rate", r.branchRate);
        addF("totals", "branch_miss_rate", r.branchMissRate);
    }

    // Framework level: per-phase µarch counters (Fig 2/4, Table IV).
    for (uint32_t p = 0; p < xlayer::kNumPhases; ++p) {
        const sim::PerfCounters &pc = r.phaseCounters[p];
        std::string section =
            std::string("phases/") + xlayer::phaseName(xlayer::Phase(p));
        const char *sec = section.c_str();
        Metric e;
        auto add = [&](const char *name, uint64_t v) {
            e = Metric();
            e.section = sec;
            e.name = name;
            e.u = v;
            m.push_back(e);
        };
        add("instructions", pc.instructions);
        add("cycles_fp", pc.cyclesFp);
        add("branches", pc.branches);
        add("cond_branches", pc.condBranches);
        add("mispredicts", pc.mispredicts);
        add("loads", pc.loads);
        add("stores", pc.stores);
        add("icache_misses", pc.icacheMisses);
        add("dcache_misses", pc.dcacheMisses);
        add("annotations", pc.annotations);
        e = Metric();
        e.section = sec;
        e.name = "cycle_share";
        e.isFloat = true;
        e.d = r.phaseShares[p];
        m.push_back(e);
    }

    // Framework events: JIT and GC lifecycle counts.
    addU("events", "loops_compiled", r.loopsCompiled);
    addU("events", "bridges_compiled", r.bridgesCompiled);
    addU("events", "traces_aborted", r.tracesAborted);
    addU("events", "trace_enters", r.traceEnters);
    addU("events", "deopts", r.deopts);
    addU("events", "gc_minor", r.gcMinor);
    addU("events", "gc_major", r.gcMajor);
    addU("events", "phase_underflows", r.phaseUnderflows);
    addU("events", "tier_ups", r.tierUps);
    addU("events", "tier1_compiles", r.tier1Compiles);

    // Streaming event tracer: ring occupancy and loss accounting.
    addU("tracer", "capacity_events", r.trace.capacityEvents);
    addU("tracer", "events_recorded", r.trace.recordedEvents);
    addU("tracer", "events_dropped", r.trace.droppedEvents);
    addU("tracer", "counter_samples", uint64_t(r.trace.counters.size()));
    addU("tracer", "counter_samples_dropped", r.trace.droppedCounters);

    // GC heap / object space.
    addU("gc", "allocations", r.gcAllocations);
    addU("gc", "promoted_bytes", r.gcPromotedBytes);
    addU("gc", "freed_objects", r.gcFreedObjects);
    addU("gc", "live_young_bytes", r.gcLiveYoungBytes);
    addU("gc", "live_old_bytes", r.gcLiveOldBytes);
    addU("gc", "live_young_objects", r.gcLiveYoungObjects);
    addU("gc", "live_old_objects", r.gcLiveOldObjects);
    addU("gc", "space_ops", r.spaceOps);

    // Machine structures: L1 caches (whole-run hit/miss).
    addU("caches", "icache_hits", r.icacheHits);
    addU("caches", "icache_misses", r.icacheMisses);
    addU("caches", "dcache_hits", r.dcacheHits);
    addU("caches", "dcache_misses", r.dcacheMisses);

    // Multi-tier JIT: per-tier compile counts, modeled compile cost,
    // resident code bytes, promotions, and execution-cycle attribution.
    // The tier1/multi golden sets exclude this section from comparison
    // (--ignore-section jit_tiers) so mode-specific telemetry churn
    // cannot mask modeled-counter regressions.
    addU("jit_tiers", "tier1_compiles", r.tier1Compiles);
    addU("jit_tiers", "tier2_compiles", r.tier2Compiles);
    addU("jit_tiers", "promotions", r.tierPromotions);
    addU("jit_tiers", "tier1_code_bytes", r.tier1CodeBytes);
    addU("jit_tiers", "tier2_code_bytes", r.tier2CodeBytes);
    addU("jit_tiers", "tier1_retired_bytes", r.tier1RetiredBytes);
    addU("jit_tiers", "tier1_compile_insts", r.tier1CompileInsts);
    addU("jit_tiers", "tier2_compile_insts", r.tier2CompileInsts);
    addU("jit_tiers", "tier1_cycles_fp", r.tier1CyclesFp);
    addU("jit_tiers", "tier2_cycles_fp", r.tier2CyclesFp);

    // Fault containment (schema v7). Abort reasons and the blacklist /
    // eviction / downgrade counts are modeled (annotation-derived) and
    // deterministic; every reason key is always emitted so goldens pin
    // the full vocabulary. The fault_* trigger telemetry is host-side
    // bookkeeping — visit counters move when a spec is merely armed —
    // so the armed golden CI pass ignores this section wholesale.
    for (uint32_t rr = 1; rr < jit::kNumAbortReasons; ++rr) {
        std::string key =
            std::string("aborted_") +
            jit::abortReasonName(jit::AbortReason(rr));
        Metric e;
        e.section = "jit_robustness";
        e.name = key;
        e.u = r.abortReasons[rr];
        m.push_back(std::move(e));
    }
    addU("jit_robustness", "traces_blacklisted", r.tracesBlacklisted);
    addU("jit_robustness", "traces_rearmed", r.tracesRearmed);
    addU("jit_robustness", "traces_evicted", r.tracesEvicted);
    addU("jit_robustness", "compile_downgrades", r.compileDowngrades);
    addU("jit_robustness", "live_traces", r.liveTraces);
    addU("jit_robustness", "faults_armed", r.faultsArmed);
    for (uint32_t s = 0; s < rt::kNumFaultSites; ++s) {
        std::string base =
            std::string("fault_") + rt::faultSiteName(rt::FaultSite(s));
        Metric e;
        e.section = "jit_robustness";
        e.name = base + "_visits";
        e.u = r.faultVisits[s];
        m.push_back(e);
        e = Metric();
        e.section = "jit_robustness";
        e.name = base + "_fired";
        e.u = r.faultFired[s];
        m.push_back(std::move(e));
    }

    // Latency distributions: percentiles of the always-on host-side
    // histograms (whole modeled cycles). Deterministic and invariant
    // under fusion/sampling, hence golden-gated.
    auto addHist = [&](const char *prefix,
                       const common::Histogram &h) {
        std::string section = std::string("latency/") + prefix;
        const char *sec = section.c_str();
        Metric e;
        auto add = [&](const char *name, uint64_t v) {
            e = Metric();
            e.section = sec;
            e.name = name;
            e.u = v;
            m.push_back(e);
        };
        add("count", h.count());
        add("min", h.min());
        add("max", h.max());
        add("p50", h.percentile(50.0));
        add("p90", h.percentile(90.0));
        add("p99", h.percentile(99.0));
        e = Metric();
        e.section = sec;
        e.name = "mean";
        e.isFloat = true;
        e.d = h.mean();
        m.push_back(e);
    };
    addHist("iteration", r.iterationLatency);
    addHist("execution", r.executionLength);

    // Deopt attribution: guard sites with at least one failure (the
    // full table is exported by the profiler; the count is invariant
    // and golden-gated).
    addU("events", "deopt_sites", uint64_t(r.deoptSites.size()));

    // Sampling profiler (host-side observation; all-zero when off).
    // The profiler-on differential CI pass ignores this section — the
    // interval is recorded here, NOT under config, precisely so the
    // rest of the document stays bit-identical with sampling on.
    addU("profiler", "interval_cycles", r.profile.intervalCycles);
    addU("profiler", "samples", r.profile.samples);
    addU("profiler", "distinct_sites", uint64_t(r.profile.sites.size()));

    // Interpreter level: completed work and warmup curve (Fig 5).
    addU("interp", "total_work", r.work);
    addU("interp", "warmup_samples", uint64_t(r.warmupCurve.size()));
    addU("interp", "timeline_bins", uint64_t(r.timeline.size()));
    addF("interp", "work_per_kinstr",
         totalInstrs ? 1000.0 * double(r.work) / double(totalInstrs) : 0.0);

    // JIT-IR level (Figs 6-9).
    uint64_t irExecTotal = 0;
    for (uint64_t c : r.irExecCounts)
        irExecTotal += c;
    addU("jit_ir", "nodes_compiled", r.irNodesCompiled);
    addU("jit_ir", "node_exec_total", irExecTotal);

    // AOT-call attribution (Table III), outermost-entry cycles.
    const rt::AotRegistry &reg = rt::AotRegistry::instance();
    for (const xlayer::AotFunctionStats &fs : r.aotFunctions) {
        std::string section = "aot/" + reg.fn(fs.fnId).name;
        Metric e;
        e.section = section;
        e.name = "calls";
        e.u = fs.calls;
        m.push_back(e);
        e = Metric();
        e.section = section;
        e.name = "cycles";
        e.isFloat = true;
        e.d = fs.cycles;
        m.push_back(e);
    }

    runs_.push_back(std::move(run));
}

Json
MetricsRegistry::toJson() const
{
    Json doc = Json::object();
    doc.set("schema_version", Json(kSchemaVersion));
    doc.set("generator", Json("xlvm"));
    doc.set("report", Json(name_));
    Json runsArr = Json::array();
    for (const Run &run : runs_) {
        Json jr = Json::object();
        jr.set("workload", Json(run.workload));
        jr.set("vm", Json(run.vm));
        jr.set("completed", Json(run.completed));
        if (!run.error.empty())
            jr.set("error", Json(run.error));
        Json metrics = Json::object();
        for (const Metric &e : run.metrics) {
            // Resolve the '/'-nested section path, creating objects.
            Json *node = &metrics;
            std::string rest = e.section;
            while (!rest.empty()) {
                size_t slash = rest.find('/');
                std::string head = rest.substr(0, slash);
                rest = slash == std::string::npos ? ""
                                                  : rest.substr(slash + 1);
                Json *child = const_cast<Json *>(node->get(head));
                node = child ? child : &node->set(head, Json::object());
            }
            node->set(e.name, e.isFloat ? Json(e.d) : Json(e.u));
        }
        jr.set("metrics", std::move(metrics));
        runsArr.push(std::move(jr));
    }
    doc.set("runs", std::move(runsArr));
    return doc;
}

std::string
MetricsRegistry::toCsv() const
{
    std::string out = "workload,vm,run,section,counter,value\n";
    char buf[64];
    for (size_t i = 0; i < runs_.size(); ++i) {
        const Run &run = runs_[i];
        for (const Metric &e : run.metrics) {
            out += run.workload;
            out.push_back(',');
            out += run.vm;
            out.push_back(',');
            std::snprintf(buf, sizeof(buf), "%zu", i);
            out += buf;
            out.push_back(',');
            out += e.section;
            out.push_back(',');
            out += e.name;
            out.push_back(',');
            if (e.isFloat) {
                out += Json::formatDouble(e.d);
            } else {
                std::snprintf(buf, sizeof(buf), "%" PRIu64, e.u);
                out += buf;
            }
            out.push_back('\n');
        }
    }
    return out;
}

bool
MetricsRegistry::write(const ReportTarget &target, std::string *err) const
{
    std::string payload;
    if (target.format == ReportTarget::Format::Json)
        payload = toJson().dump(2) + "\n";
    else
        payload = toCsv();

    if (target.path == "-") {
        std::fwrite(payload.data(), 1, payload.size(), stdout);
        return true;
    }
    std::ofstream f(target.path, std::ios::binary | std::ios::trunc);
    if (!f) {
        if (err)
            *err = "cannot open " + target.path + " for writing";
        return false;
    }
    f.write(payload.data(), std::streamsize(payload.size()));
    f.flush();
    if (!f) {
        if (err)
            *err = "write failed for " + target.path;
        return false;
    }
    return true;
}

bool
MetricsRegistry::writeAll(const std::vector<ReportTarget> &targets,
                          std::string *err) const
{
    for (const ReportTarget &t : targets) {
        if (!write(t, err))
            return false;
    }
    return true;
}

} // namespace report
} // namespace xlvm
