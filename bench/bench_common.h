/**
 * @file
 * Shared helpers for the table/figure regeneration binaries.
 *
 * Each bench binary regenerates one table or figure of the paper from
 * the simulated stack. "Time (s)" is simulated cycles at 3 GHz; we
 * reproduce shapes (orderings, dominant phases, crossovers), not the
 * paper's absolute hardware numbers.
 */

#ifndef XLVM_BENCH_COMMON_H
#define XLVM_BENCH_COMMON_H

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/stats.h"
#include "driver/parallel.h"
#include "rt/faults.h"
#include "driver/runner.h"
#include "report/metrics.h"
#include "report/profile_export.h"
#include "report/trace_export.h"
#include "xlayer/sampler.h"
#include "workloads/workloads.h"

namespace xlvm {
namespace bench {

/**
 * One bench binary's run context: executes sweeps through the
 * thread-pool harness (honoring --jobs/-j and XLVM_JOBS) and records
 * every run into a report::MetricsRegistry so "--report json[:path]" /
 * "--report csv[:path]" can emit a machine-readable report alongside —
 * never instead of — the human-readable table on stdout.
 *
 * Job counts and report destinations go to stderr so stdout stays
 * byte-identical to a sequential run; simulated counters are
 * deterministic regardless of job count, so both the printed table and
 * the exported report never vary with parallelism.
 *
 * Event tracing: a repeatable "--trace[:path]" (or --trace=path) flag —
 * or the XLVM_TRACE environment variable (XLVM_TRACE=1 for the default
 * path, XLVM_TRACE=path otherwise; flags win) — streams every recorded
 * run's cross-layer events into one combined Chrome trace-event JSON
 * file (one process per run; open in ui.perfetto.dev, inspect with
 * tools/xlvm-trace). "--trace-buffer-events N" sizes the per-run ring
 * buffer; when a run overflows it, the newest events survive, the
 * overwritten oldest ones are counted, and a one-line warning is
 * printed at exit. "--trace-tags name,name,..." opts additional event
 * tags into the recording mask on top of the default set (names as
 * printed by xlvm-trace, e.g. ir_node, dispatch; "all" enables every
 * tag) — the high-frequency firehoses are off by default because they
 * flush the ring within milliseconds.
 *
 * Tier policy: "--tier-mode off|tier1|tier2|multi" (or the
 * XLVM_TIER_MODE environment variable; flags win) selects the JIT
 * compilation-tier policy for every run of the sweep. The flag is
 * applied to RunOptions — not just the VM config — so the exported
 * report's config section records the mode that actually ran.
 *
 * Sampling profiler: a repeatable "--profile[:path]" (or --profile=path)
 * flag — or XLVM_PROFILE (1 for the default path, a path otherwise;
 * flags win) — arms the deterministic cycle sampler for every run and
 * writes one combined profile JSON (inspect with tools/xlvm-prof, or
 * `xlvm-prof folded` for flamegraph.pl/speedscope input).
 * "--profile-interval N" sets the sampling period in modeled cycles.
 * Sampling never moves a modeled counter, so the stdout table and the
 * --report export are byte-identical with profiling on or off.
 *
 * Fault injection / containment: "--inject site[:nth],..." (or the
 * XLVM_INJECT environment variable, applied by the runner; flags win)
 * arms the deterministic fault engine for every run — a malformed spec
 * is a hard error at startup. "--storm-threshold N",
 * "--blacklist-cooldown N", "--compile-budget N" and "--max-traces N"
 * tune the deopt-storm blacklist, the per-trace compile budget and the
 * trace-cache capacity (0 = unlimited for the latter two).
 */
class Session
{
  public:
    Session(const char *report_name, int argc, char **argv)
        : registry(report_name), jobs_(driver::jobsFromArgs(argc, argv))
    {
        std::string err;
        if (!report::targetsFromArgs(argc, argv, report_name, &targets_,
                                     &err)) {
            std::fprintf(stderr, "%s\n", err.c_str());
            std::exit(2);
        }
        parseTraceArgs(report_name, argc, argv);
    }

    /** Run a sweep through the harness; results keep the runs' order. */
    std::vector<driver::RunResult>
    sweep(const std::vector<driver::RunOptions> &runs)
    {
        std::fprintf(stderr, "[%u job%s]\n", jobs_,
                     jobs_ == 1 ? "" : "s");
        std::vector<driver::RunOptions> traced = runs;
        for (driver::RunOptions &o : traced) {
            o.tierMode = tierMode_;
            applyRobustness(o);
            if (profiling())
                o.profileIntervalCycles = profileInterval_;
        }
        if (tracing()) {
            for (driver::RunOptions &o : traced) {
                o.traceBufferEvents = traceBufferEvents_;
                o.traceTagMask = traceTagMask_;
                o.traceRunId = uint32_t(traceBuilder_.runCount() +
                                        (&o - traced.data()));
            }
        }
        std::vector<driver::RunResult> res =
            driver::runWorkloadsParallel(traced, jobs_);
        for (size_t i = 0; i < traced.size(); ++i) {
            registry.addRun(traced[i], res[i]);
            if (tracing()) {
                report::Json prov = report::runProvenance(traced[i]);
                traceBuilder_.addRun(traced[i].workload,
                                     driver::vmKindName(traced[i].vm),
                                     res[i].trace, &prov);
            }
            if (profiling())
                profileBuilder_.addRun(traced[i], res[i]);
        }
        return res;
    }

    /** Run one configuration inline (Racket-family kinds dispatch). */
    driver::RunResult
    run(const driver::RunOptions &opts)
    {
        driver::RunOptions o = opts;
        o.tierMode = tierMode_;
        applyRobustness(o);
        if (profiling())
            o.profileIntervalCycles = profileInterval_;
        if (tracing()) {
            o.traceBufferEvents = traceBufferEvents_;
            o.traceTagMask = traceTagMask_;
            o.traceRunId = uint32_t(traceBuilder_.runCount());
        }
        driver::RunResult r =
            (o.vm == driver::VmKind::RacketLike ||
             o.vm == driver::VmKind::PycketJit)
                ? driver::runRktWorkload(o)
                : driver::runWorkload(o);
        registry.addRun(o, r);
        if (tracing()) {
            report::Json prov = report::runProvenance(o);
            traceBuilder_.addRun(o.workload, driver::vmKindName(o.vm),
                                 r.trace, &prov);
        }
        if (profiling())
            profileBuilder_.addRun(o, r);
        return r;
    }

    bool tracing() const { return !tracePaths_.empty(); }

    bool profiling() const { return !profilePaths_.empty(); }

    /** Emit every --report and --trace target; returns the exit code. */
    int
    finish() const
    {
        std::string err;
        if (!registry.writeAll(targets_, &err)) {
            std::fprintf(stderr, "report: %s\n", err.c_str());
            return 1;
        }
        for (const report::ReportTarget &t : targets_) {
            if (t.path != "-")
                std::fprintf(stderr, "[report: %s]\n", t.path.c_str());
        }
        if (tracing()) {
            report::Json doc = traceBuilder_.toJson();
            for (const std::string &path : tracePaths_) {
                if (!report::writeChromeTrace(doc, path, &err)) {
                    std::fprintf(stderr, "trace: %s\n", err.c_str());
                    return 1;
                }
                if (path != "-")
                    std::fprintf(stderr, "[trace: %s]\n", path.c_str());
            }
            if (traceBuilder_.droppedEvents() > 0) {
                std::fprintf(stderr,
                             "xlvm: trace: %llu events dropped (ring "
                             "wrapped; oldest overwritten) — raise "
                             "--trace-buffer-events\n",
                             (unsigned long long)
                                 traceBuilder_.droppedEvents());
            }
        }
        if (profiling()) {
            for (const std::string &path : profilePaths_) {
                if (!profileBuilder_.write(path, &err)) {
                    std::fprintf(stderr, "profile: %s\n", err.c_str());
                    return 1;
                }
                if (path != "-")
                    std::fprintf(stderr, "[profile: %s]\n", path.c_str());
            }
        }
        return 0;
    }

    report::MetricsRegistry registry;

  private:
    void
    parseTraceArgs(const char *report_name, int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            const char *a = argv[i];
            if (std::strcmp(a, "--trace") == 0) {
                tracePaths_.push_back("");
            } else if (std::strncmp(a, "--trace:", 8) == 0) {
                tracePaths_.push_back(a + 8);
            } else if (std::strncmp(a, "--trace=", 8) == 0) {
                tracePaths_.push_back(a + 8);
            } else if (std::strcmp(a, "--trace-buffer-events") == 0 &&
                       i + 1 < argc) {
                traceBufferEvents_ = std::strtoull(argv[++i], nullptr, 10);
            } else if (std::strncmp(a, "--trace-buffer-events=", 22) ==
                       0) {
                traceBufferEvents_ = std::strtoull(a + 22, nullptr, 10);
            } else if (std::strcmp(a, "--trace-tags") == 0 &&
                       i + 1 < argc) {
                addTraceTags(argv[++i]);
            } else if (std::strncmp(a, "--trace-tags=", 13) == 0) {
                addTraceTags(a + 13);
            } else if (std::strcmp(a, "--tier-mode") == 0 &&
                       i + 1 < argc) {
                setTierMode(argv[++i]);
            } else if (std::strncmp(a, "--tier-mode=", 12) == 0) {
                setTierMode(a + 12);
            } else if (std::strncmp(a, "--tier-mode:", 12) == 0) {
                setTierMode(a + 12);
            } else if (std::strcmp(a, "--profile") == 0) {
                profilePaths_.push_back("");
            } else if (std::strncmp(a, "--profile:", 10) == 0) {
                profilePaths_.push_back(a + 10);
            } else if (std::strncmp(a, "--profile=", 10) == 0) {
                profilePaths_.push_back(a + 10);
            } else if (std::strcmp(a, "--profile-interval") == 0 &&
                       i + 1 < argc) {
                profileInterval_ = std::strtoull(argv[++i], nullptr, 10);
            } else if (std::strncmp(a, "--profile-interval=", 19) == 0) {
                profileInterval_ = std::strtoull(a + 19, nullptr, 10);
            } else if (std::strcmp(a, "--inject") == 0 && i + 1 < argc) {
                setInject(argv[++i]);
            } else if (std::strncmp(a, "--inject=", 9) == 0) {
                setInject(a + 9);
            } else if (std::strcmp(a, "--storm-threshold") == 0 &&
                       i + 1 < argc) {
                stormThreshold_ = uint32_t(std::strtoul(argv[++i],
                                                        nullptr, 10));
            } else if (std::strncmp(a, "--storm-threshold=", 18) == 0) {
                stormThreshold_ = uint32_t(std::strtoul(a + 18, nullptr,
                                                        10));
            } else if (std::strcmp(a, "--blacklist-cooldown") == 0 &&
                       i + 1 < argc) {
                blacklistCooldown_ = uint32_t(std::strtoul(argv[++i],
                                                           nullptr, 10));
            } else if (std::strncmp(a, "--blacklist-cooldown=", 21) ==
                       0) {
                blacklistCooldown_ = uint32_t(std::strtoul(a + 21,
                                                           nullptr, 10));
            } else if (std::strcmp(a, "--compile-budget") == 0 &&
                       i + 1 < argc) {
                compileBudgetOps_ = uint32_t(std::strtoul(argv[++i],
                                                          nullptr, 10));
            } else if (std::strncmp(a, "--compile-budget=", 17) == 0) {
                compileBudgetOps_ = uint32_t(std::strtoul(a + 17, nullptr,
                                                          10));
            } else if (std::strcmp(a, "--max-traces") == 0 &&
                       i + 1 < argc) {
                maxTraces_ = uint32_t(std::strtoul(argv[++i], nullptr,
                                                   10));
            } else if (std::strncmp(a, "--max-traces=", 13) == 0) {
                maxTraces_ = uint32_t(std::strtoul(a + 13, nullptr, 10));
            }
        }
        if (!tierModeSet_) {
            const char *env = std::getenv("XLVM_TIER_MODE");
            if (env && *env)
                setTierMode(env);
        }
        if (tracePaths_.empty()) {
            const char *env = std::getenv("XLVM_TRACE");
            if (env && *env && std::strcmp(env, "0") != 0) {
                tracePaths_.push_back(std::strcmp(env, "1") == 0 ? ""
                                                                 : env);
            }
        }
        if (profilePaths_.empty()) {
            const char *env = std::getenv("XLVM_PROFILE");
            if (env && *env && std::strcmp(env, "0") != 0) {
                profilePaths_.push_back(std::strcmp(env, "1") == 0 ? ""
                                                                   : env);
            }
        }
        if (traceBufferEvents_ == 0)
            traceBufferEvents_ = kDefaultTraceBufferEvents;
        if (profileInterval_ == 0)
            profileInterval_ = xlayer::kDefaultSampleIntervalCycles;
        for (std::string &p : tracePaths_) {
            if (p.empty())
                p = std::string(report_name) + "-trace.json";
        }
        for (std::string &p : profilePaths_) {
            if (p.empty())
                p = std::string(report_name) + "-profile.json";
        }
        // Document-level provenance header for the Chrome-trace export;
        // per-run config rides along with each otherData.runs entry.
        report::Json prov = report::Json::object();
        prov.set("report", report::Json(report_name));
        prov.set("schema_version",
                 report::Json(report::MetricsRegistry::kSchemaVersion));
        prov.set("tier_mode",
                 report::Json(vm::tierModeName(tierMode_)));
        prov.set("sampler_interval_cycles",
                 report::Json(profiling() ? profileInterval_
                                          : uint64_t(0)));
        traceBuilder_.setProvenance(std::move(prov));
    }

    /** Copy the fault-containment knobs into one run's options. The
     *  XLVM_INJECT env hatch is resolved by the runner so per-run specs
     *  stay overridable from a sweep script. */
    void
    applyRobustness(driver::RunOptions &o) const
    {
        if (!inject_.empty())
            o.inject = inject_;
        if (stormThreshold_ != kUnsetU32)
            o.stormThreshold = stormThreshold_;
        if (blacklistCooldown_ != kUnsetU32)
            o.blacklistCooldown = blacklistCooldown_;
        if (compileBudgetOps_ != kUnsetU32)
            o.compileBudgetOps = compileBudgetOps_;
        if (maxTraces_ != kUnsetU32)
            o.maxTraces = maxTraces_;
    }

    /** Validate an --inject spec up front; a malformed spec is a hard
     *  error (a silently ignored chaos trigger would make a CI sweep
     *  pass without testing anything). */
    void
    setInject(const char *spec)
    {
        rt::FaultEngine probe;
        std::string err;
        if (!probe.configure(spec, &err)) {
            std::fprintf(stderr, "%s\n", err.c_str());
            std::exit(2);
        }
        inject_ = spec;
    }

    /** Parse a tier-mode name; a typo is a hard error (a silently
     *  defaulted mode would gate the wrong golden set in CI). */
    void
    setTierMode(const char *name)
    {
        if (!vm::tierModeFromString(name, &tierMode_)) {
            std::fprintf(stderr,
                         "--tier-mode: unknown mode '%s' (want "
                         "off|tier1|tier2|multi)\n",
                         name);
            std::exit(2);
        }
        tierModeSet_ = true;
    }

    /** OR extra tags from a comma-separated name list into the
     *  recording mask ("all" enables everything). Unknown names warn
     *  and are ignored so a typo cannot silently record nothing. */
    void
    addTraceTags(const char *list)
    {
        std::string names(list);
        size_t pos = 0;
        while (pos <= names.size()) {
            size_t comma = names.find(',', pos);
            std::string name = names.substr(
                pos, comma == std::string::npos ? comma : comma - pos);
            if (name == "all") {
                traceTagMask_ = ~0u;
            } else if (!name.empty()) {
                int32_t tag = report::annotTagFromString(name);
                if (tag < 0) {
                    std::fprintf(stderr,
                                 "[--trace-tags: unknown tag '%s' "
                                 "ignored]\n",
                                 name.c_str());
                } else {
                    traceTagMask_ |= xlayer::traceTagBit(uint32_t(tag));
                }
            }
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
    }

    static constexpr uint64_t kDefaultTraceBufferEvents = 1u << 20;

    std::vector<report::ReportTarget> targets_;
    unsigned jobs_;
    /** "--tier-mode"/XLVM_TIER_MODE: JIT compilation-tier policy. */
    vm::TierMode tierMode_ = vm::TierMode::Tier2;
    bool tierModeSet_ = false;
    std::vector<std::string> tracePaths_;
    uint64_t traceBufferEvents_ = kDefaultTraceBufferEvents;
    /** "--trace-tags": recording mask for the per-run event tracer. */
    uint32_t traceTagMask_ = xlayer::kDefaultTraceTagMask;
    report::ChromeTraceBuilder traceBuilder_;
    /** "--profile"/XLVM_PROFILE: sampling-profile destinations. */
    std::vector<std::string> profilePaths_;
    /** "--profile-interval": sampling period in modeled cycles. */
    uint64_t profileInterval_ = 0;
    report::ProfileBuilder profileBuilder_{"profile"};
    /** Sentinel: flag not given, keep the RunOptions default. */
    static constexpr uint32_t kUnsetU32 = ~0u;
    /** "--inject": fault-injection spec applied to every run. */
    std::string inject_;
    uint32_t stormThreshold_ = kUnsetU32;
    uint32_t blacklistCooldown_ = kUnsetU32;
    uint32_t compileBudgetOps_ = kUnsetU32;
    uint32_t maxTraces_ = kUnsetU32;
};

/**
 * Apply a "--workloads a,b,c" (or --workloads=a,b,c) filter to a bench
 * binary's default workload list, preserving the default order. Used by
 * CI smoke jobs to run a reduced set. Requested names that are not in
 * the default set are reported to stderr and ignored.
 */
inline std::vector<std::string>
selectWorkloads(std::vector<std::string> defaults, int argc, char **argv)
{
    std::string spec;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--workloads") == 0 && i + 1 < argc)
            spec = argv[i + 1];
        else if (std::strncmp(argv[i], "--workloads=", 12) == 0)
            spec = argv[i] + 12;
    }
    if (spec.empty())
        return defaults;

    std::vector<std::string> wanted;
    size_t start = 0;
    while (start <= spec.size()) {
        size_t comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        if (comma > start)
            wanted.push_back(spec.substr(start, comma - start));
        start = comma + 1;
    }

    std::vector<std::string> out;
    for (const std::string &name : defaults) {
        if (std::find(wanted.begin(), wanted.end(), name) != wanted.end())
            out.push_back(name);
    }
    for (const std::string &name : wanted) {
        if (std::find(defaults.begin(), defaults.end(), name) ==
            defaults.end())
            std::fprintf(stderr, "[--workloads: '%s' not in this "
                                 "bench's set, ignored]\n",
                         name.c_str());
    }
    return out;
}

/** Membership helper for benches that iterate a suite directly. */
inline bool
contains(const std::vector<std::string> &names, const std::string &name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

/** Table I / figures workload subset (order follows the paper). */
inline std::vector<std::string>
tableOneWorkloads()
{
    return {"richards",      "crypto_pyaes",
            "chaos",         "telco",
            "spectral_norm", "django",
            "twisted_iteration", "spitfire_cstringio",
            "raytrace_simple", "hexiom2",
            "float",         "ai"};
}

/** The wider set used by Figures 2 and 5-9. */
inline std::vector<std::string>
figureWorkloads()
{
    std::vector<std::string> names;
    for (const workloads::Workload &w : workloads::pypySuite())
        names.push_back(w.name);
    return names;
}

inline driver::RunOptions
baseOptions(const std::string &workload, driver::VmKind vm)
{
    driver::RunOptions o;
    o.workload = workload;
    o.vm = vm;
    o.loopThreshold = 120;
    o.bridgeThreshold = 40;
    // Tier policy thresholds for --tier-mode tier1/multi sweeps: trace
    // earlier than the tier-2 threshold (cheap baseline compiles buy
    // early native execution), promote at moderate reuse.
    o.tier1Threshold = 30;
    o.tier2Threshold = 60;
    o.maxInstructions = 400u * 1000 * 1000;
    return o;
}

inline void
printRule(int width)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

/** Render a unit-length horizontal bar for ASCII stacked charts. */
inline std::string
bar(double fraction, int width)
{
    int n = int(fraction * width + 0.5);
    n = std::clamp(n, 0, width);
    return std::string(n, '#');
}

} // namespace bench
} // namespace xlvm

#endif // XLVM_BENCH_COMMON_H
