#include "repro.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_common.h"
#include "driver/parallel.h"
#include "report/profile_export.h"
#include "report/trace_export.h"
#include "rt/faults.h"

namespace xlvm {
namespace bench {

namespace {

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "%s\n", msg.c_str());
    std::exit(2);
}

/** Match "--name V" or "--name=V" at argv[i] (also "--name:V" when
 *  @p colon), stepping i past a separate value. */
bool
flagValue(int argc, char **argv, int &i, const char *name,
          std::string *val, bool colon = false)
{
    size_t n = std::strlen(name);
    const char *a = argv[i];
    if (std::strncmp(a, name, n) != 0)
        return false;
    if (a[n] == '=' || (colon && a[n] == ':')) {
        *val = a + n + 1;
        return true;
    }
    if (a[n] != '\0')
        return false;
    if (i + 1 >= argc)
        usageError(std::string(name) + " requires a value");
    *val = argv[++i];
    return true;
}

/** Match "--name" (default path), "--name:path" or "--name=path". */
bool
pathFlag(const char *a, const char *name, std::vector<std::string> *paths)
{
    size_t n = std::strlen(name);
    if (std::strncmp(a, name, n) != 0 ||
        (a[n] != '\0' && a[n] != ':' && a[n] != '='))
        return false;
    paths->push_back(a[n] == '\0' ? "" : a + n + 1);
    return true;
}

/** XLVM_TRACE / XLVM_PROFILE when no flag gave a path: 1 = default
 *  path, 0 = off, anything else a path. */
void
pathFromEnv(const char *var, std::vector<std::string> *paths)
{
    const char *env = std::getenv(var);
    if (paths->empty() && env && *env && std::strcmp(env, "0") != 0)
        paths->push_back(std::strcmp(env, "1") == 0 ? "" : env);
}

/** A decimal count in [0, max]; anything else is a usage error (a
 *  garbage threshold must not silently become 0 and switch a policy
 *  off). */
uint64_t
parseCount(const char *flag, const std::string &v, uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || !std::isdigit((unsigned char)v[0]) || *end != '\0' ||
        errno == ERANGE || x > max) {
        usageError(std::string(flag) + ": invalid value '" + v +
                   "' (want an integer 0.." + std::to_string(max) + ")");
    }
    return x;
}

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= list.size()) {
        size_t comma = std::min(list.find(',', start), list.size());
        if (comma > start)
            out.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

/** "json|csv[:path]"; an empty path means "<sweep>.<ext>". */
report::ReportTarget
parseReportSpec(const std::string &spec)
{
    report::ReportTarget t;
    size_t colon = std::min(spec.find(':'), spec.size());
    std::string fmt = spec.substr(0, colon);
    if (fmt == "csv")
        t.format = report::ReportTarget::Format::Csv;
    else if (fmt != "json")
        usageError("unknown report format '" + fmt +
                   "' (expected json or csv)");
    t.path = spec.substr(std::min(colon + 1, spec.size()));
    return t;
}

/** A typo is a hard error: a silently defaulted mode would gate the
 *  wrong golden set in CI. */
vm::TierMode
parseTierMode(const std::string &name)
{
    vm::TierMode m;
    if (!vm::tierModeFromString(name.c_str(), &m)) {
        usageError("--tier-mode: unknown mode '" + name +
                   "' (want off|tier1|tier2|multi)");
    }
    return m;
}

/** A malformed spec is a hard error: a silently ignored chaos trigger
 *  would make a CI sweep pass without testing anything. */
std::string
parseInject(const std::string &spec)
{
    std::string err;
    if (!rt::FaultEngine().configure(spec, &err))
        usageError(err);
    return spec;
}

/** OR tags from a name list into @p mask ("all" enables everything).
 *  Unknown names warn and are ignored. */
void
addTraceTags(const std::string &list, uint32_t *mask)
{
    for (const std::string &name : splitList(list)) {
        int32_t tag = report::annotTagFromString(name);
        if (name == "all")
            *mask = ~0u;
        else if (tag >= 0)
            *mask |= xlayer::traceTagBit(uint32_t(tag));
        else
            std::fprintf(stderr,
                         "[--trace-tags: unknown tag '%s' ignored]\n",
                         name.c_str());
    }
}

/** @p defaults filtered by @p wanted (empty = no filter), in default
 *  order; names outside the defaults are reported and ignored. */
std::vector<std::string>
selectWorkloads(const char *sweep, const std::vector<std::string> &defaults,
                const std::vector<std::string> &wanted)
{
    if (wanted.empty())
        return defaults;
    std::vector<std::string> out;
    for (const std::string &name : defaults) {
        if (contains(wanted, name))
            out.push_back(name);
    }
    for (const std::string &name : wanted) {
        if (!contains(defaults, name))
            std::fprintf(stderr,
                         "[--workloads: '%s' not in %s's set, ignored]\n",
                         name.c_str(), sweep);
    }
    return out;
}

} // namespace

ReproArgs
parseReproArgs(int argc, char **argv, const std::vector<Sweep> &sweeps)
{
    ReproArgs a;
    std::vector<std::string> sweepNames;
    bool tierModeSet = false;
    bool injectSet = false;
    for (int i = 1; i < argc; ++i) {
        std::string v;
        if (pathFlag(argv[i], "--trace", &a.tracePaths) ||
            pathFlag(argv[i], "--profile", &a.profilePaths))
            continue;
        if (flagValue(argc, argv, i, "--sweep", &v)) {
            sweepNames = splitList(v);
        } else if (flagValue(argc, argv, i, "--report", &v)) {
            a.reports.push_back(parseReportSpec(v));
        } else if (flagValue(argc, argv, i, "--jobs", &v) ||
                   flagValue(argc, argv, i, "-j", &v)) {
            a.jobs = unsigned(parseCount("--jobs", v, ~0u));
        } else if (flagValue(argc, argv, i, "--workloads", &v)) {
            a.workloads = splitList(v);
        } else if (flagValue(argc, argv, i, "--trace-buffer-events", &v)) {
            // 0 keeps the default, as for --profile-interval.
            if (uint64_t n = parseCount("--trace-buffer-events", v,
                                        UINT64_MAX))
                a.traceBufferEvents = n;
        } else if (flagValue(argc, argv, i, "--trace-tags", &v)) {
            addTraceTags(v, &a.traceTagMask);
        } else if (flagValue(argc, argv, i, "--tier-mode", &v, true)) {
            a.tierMode = parseTierMode(v);
            tierModeSet = true;
        } else if (flagValue(argc, argv, i, "--profile-interval", &v)) {
            if (uint64_t n = parseCount("--profile-interval", v,
                                        UINT64_MAX))
                a.profileInterval = n;
        } else if (flagValue(argc, argv, i, "--inject", &v)) {
            a.inject = parseInject(v);
            injectSet = true;
        } else if (flagValue(argc, argv, i, "--storm-threshold", &v)) {
            a.policy.emplace_back(&driver::RunOptions::stormThreshold,
                                  parseCount("--storm-threshold", v, ~0u));
        } else if (flagValue(argc, argv, i, "--blacklist-cooldown", &v)) {
            a.policy.emplace_back(&driver::RunOptions::blacklistCooldown,
                                  parseCount("--blacklist-cooldown", v, ~0u));
        } else if (flagValue(argc, argv, i, "--compile-budget", &v)) {
            a.policy.emplace_back(&driver::RunOptions::compileBudgetOps,
                                  parseCount("--compile-budget", v, ~0u));
        } else if (flagValue(argc, argv, i, "--max-traces", &v)) {
            a.policy.emplace_back(&driver::RunOptions::maxTraces,
                                  parseCount("--max-traces", v, ~0u));
        }
    }

    std::string known;
    for (const Sweep &s : sweeps) {
        known += (known.empty() ? "" : ",") + std::string(s.name);
        if (sweepNames.empty() || contains(sweepNames, s.name))
            a.sweeps.push_back(&s);
    }
    for (const std::string &name : sweepNames) {
        if (!contains(splitList(known), name))
            usageError("--sweep: unknown sweep '" + name + "' (want " +
                       known + ")");
    }
    for (const report::ReportTarget &t : a.reports) {
        if (!t.path.empty() && a.sweeps.size() > 1)
            usageError("--report: a path names one sweep's report; select "
                       "one sweep with --sweep or drop the path");
    }

    // The environment fills in only what no flag set, and is checked
    // like the flag it stands for.
    const char *tierEnv = std::getenv("XLVM_TIER_MODE");
    if (!tierModeSet && tierEnv && *tierEnv)
        a.tierMode = parseTierMode(tierEnv);
    const char *injectEnv = std::getenv("XLVM_INJECT");
    if (!injectSet && injectEnv && *injectEnv)
        a.inject = parseInject(injectEnv);
    pathFromEnv("XLVM_TRACE", &a.tracePaths);
    pathFromEnv("XLVM_PROFILE", &a.profilePaths);
    return a;
}

Repro::Repro(ReproArgs args) : args_(std::move(args))
{
    if (args_.jobs == 0)
        args_.jobs = driver::defaultJobs();
    for (std::string &p : args_.tracePaths)
        p = p.empty() ? stem() + "-trace.json" : p;
    for (std::string &p : args_.profilePaths)
        p = p.empty() ? stem() + "-profile.json" : p;
}

/** The flags every recorded run honors. */
driver::RunOptions
Repro::applyFlags(driver::RunOptions o) const
{
    o.tierMode = args_.tierMode;
    if (!args_.inject.empty())
        o.inject = args_.inject;
    for (auto [field, value] : args_.policy)
        o.*field = value;
    if (!args_.profilePaths.empty())
        o.profileIntervalCycles = args_.profileInterval;
    if (!args_.tracePaths.empty()) {
        o.traceBufferEvents = args_.traceBufferEvents;
        o.traceTagMask = args_.traceTagMask;
    }
    return o;
}

/** Index of @p o in the run table, adding it unless an equal run is
 *  already there. */
size_t
Repro::need(const driver::RunOptions &o)
{
    auto it = std::find(runs_.begin(), runs_.end(), o);
    if (it == runs_.end())
        it = runs_.insert(it, o);
    return size_t(it - runs_.begin());
}

/** Simulate every run added since the last call, through one pool. A
 *  traced run's id is its position among the traced runs. */
void
Repro::simulatePending()
{
    std::vector<driver::RunOptions> batch(runs_.begin() + results_.size(),
                                          runs_.end());
    if (batch.empty())
        return;
    for (driver::RunOptions &o : batch) {
        if (o.traceBufferEvents > 0)
            o.traceRunId = traced_++;
    }
    std::fprintf(stderr, "[%u job%s, %zu runs]\n", args_.jobs,
                 args_.jobs == 1 ? "" : "s", batch.size());
    for (driver::RunResult &r :
         driver::runWorkloadsParallel(batch, args_.jobs))
        results_.push_back(std::move(r));
}

Results
Repro::resultsOf(const std::vector<size_t> &idx) const
{
    Results out;
    for (size_t i : idx)
        out.push_back(&results_[i]);
    return out;
}

void
Repro::run()
{
    // Stage 1: the probes and every run list that needs none.
    for (const Sweep *s : args_.sweeps) {
        Selected sel{s, {}, {}, {}, {}};
        if (s->workloads)
            sel.names = selectWorkloads(s->name, s->workloads(),
                                        args_.workloads);
        if (s->native)
            sel.native = s->native(sel.names);
        if (s->probes) {
            for (const driver::RunOptions &o : s->probes(sel.names))
                sel.probes.push_back(need(o));
        } else {
            for (const driver::RunOptions &o : s->runs(sel.names, {}))
                sel.runs.push_back(need(applyFlags(o)));
        }
        selected_.push_back(std::move(sel));
    }
    simulatePending();
    // Stage 2: the run lists their probes size.
    for (Selected &sel : selected_) {
        if (!sel.sweep->probes)
            continue;
        for (const driver::RunOptions &o :
             sel.sweep->runs(sel.names, resultsOf(sel.probes)))
            sel.runs.push_back(need(applyFlags(o)));
    }
    simulatePending();
}

void
Repro::printViews() const
{
    bool first = true;
    for (const Selected &s : selected_) {
        SweepData d{s.names, {}, resultsOf(s.runs), s.native};
        for (size_t i : s.runs)
            d.runs.push_back(runs_[i]);
        for (void (*view)(const SweepData &) : s.sweep->views) {
            if (!first)
                std::putchar('\n');
            first = false;
            view(d);
        }
    }
}

report::MetricsRegistry
Repro::report(size_t i) const
{
    report::MetricsRegistry reg(selected_[i].sweep->name);
    for (size_t idx : selected_[i].runs)
        reg.addRun(runs_[idx], results_[idx]);
    return reg;
}

int
Repro::finish() const
{
    std::string err;
    auto wrote = [&](const char *what, const std::string &path, bool ok) {
        if (!ok)
            std::fprintf(stderr, "%s: %s\n", what, err.c_str());
        else if (path != "-")
            std::fprintf(stderr, "[%s: %s]\n", what, path.c_str());
        return ok;
    };

    for (size_t i = 0; !args_.reports.empty() && i < selected_.size(); ++i) {
        report::MetricsRegistry reg = report(i);
        for (report::ReportTarget t : args_.reports) {
            bool json = t.format == report::ReportTarget::Format::Json;
            if (t.path.empty())
                t.path = selected_[i].sweep->name +
                         std::string(json ? ".json" : ".csv");
            if (!wrote("report", t.path, reg.write(t, &err)))
                return 1;
        }
    }

    // Each traced (profiled) run once, in the order it was added.
    // Probes run without flags, so they are in neither document.
    if (!args_.tracePaths.empty()) {
        report::ChromeTraceBuilder trace;
        report::Json prov = report::Json::object();
        prov.set("report", stem());
        prov.set("schema_version", report::MetricsRegistry::kSchemaVersion);
        prov.set("tier_mode", vm::tierModeName(args_.tierMode));
        prov.set("sampler_interval_cycles",
                 args_.profilePaths.empty() ? 0 : args_.profileInterval);
        trace.setProvenance(std::move(prov));
        for (size_t i = 0; i < runs_.size(); ++i) {
            if (runs_[i].traceBufferEvents == 0)
                continue;
            report::Json runProv = report::runProvenance(runs_[i]);
            trace.addRun(runs_[i].workload,
                         driver::vmKindName(runs_[i].vm),
                         results_[i].trace, &runProv);
        }
        report::Json doc = trace.toJson();
        for (const std::string &path : args_.tracePaths) {
            if (!wrote("trace", path,
                       report::writeChromeTrace(doc, path, &err)))
                return 1;
        }
        if (trace.droppedEvents() > 0) {
            std::fprintf(stderr,
                         "xlvm: trace: %llu events dropped (ring wrapped; "
                         "oldest overwritten) — raise "
                         "--trace-buffer-events\n",
                         (unsigned long long)trace.droppedEvents());
        }
    }

    if (!args_.profilePaths.empty()) {
        report::ProfileBuilder profile("profile");
        for (size_t i = 0; i < runs_.size(); ++i) {
            if (runs_[i].profileIntervalCycles > 0)
                profile.addRun(runs_[i], results_[i]);
        }
        for (const std::string &path : args_.profilePaths) {
            if (!wrote("profile", path, profile.write(path, &err)))
                return 1;
        }
    }
    return 0;
}

} // namespace bench
} // namespace xlvm
