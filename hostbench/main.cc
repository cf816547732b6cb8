/**
 * @file
 * xlvm host-time benchmark.
 *
 * Runs one workload's programs through the public entry points
 * driver::runWorkload and report::MetricsRegistry::addRun, one run at a
 * time in a closed loop on one thread, with the reproduction's options
 * (bench::baseOptions). A pass runs every program of the workload once,
 * in a seed-permuted order. A run makes a fixed number of passes, sized
 * from --seconds and the workload's nominal pass time. Every run is
 * checked (final printed line, modeled totals against the reference
 * recorded beside this file, per-layer counts identical across
 * repetitions) and the process exits non-zero if any run fails. A fixed
 * probe kernel is timed after every run, and each pass's timings are
 * reported at the reference host speed (hostbench::atReferenceSpeed), so
 * that other tenants of a shared host move them less.
 *
 *   hostbench --workload trace_hot --seed 1 --seconds 25 --trace 0
 *
 * --trace 0 prints the end-to-end metrics, measured untraced.
 * --trace 1 alternates untraced and traced passes, prints the per-layer
 * metrics and the tracing overhead, and writes the spans to --spans PATH.
 * The last line of stdout is one JSON object with the results.
 * --record-reference runs each (program, VM) pair once and prints a new
 * reference file instead.
 */

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "driver/runner.h"
#include "logic.h"
#include "minipy/compiler.h"
#include "report/json.h"
#include "report/metrics.h"
#include "vm/context.h"
#include "workloads/workloads.h"

using namespace xlvm;
using hostbench::LayerCounts;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct WorkloadDef
{
    const char *name;
    driver::VmKind vm;
    /**
     * Seconds of --seconds that one pass stands for: a run makes
     * round(--seconds / passS) passes. Near a pass's host time on the
     * machine in NOTES.md, and chosen so that trace_churn's tail falls
     * in hexiom2's runs (11 passes) at the listed run length of 40 s.
     */
    double passS;
    std::vector<const char *> programs;
};

/**
 * Passes per run at least: keeps a traced and an untraced pass, and 20
 * runs for the tail percentile on a 9-program workload.
 */
constexpr uint64_t kMinPasses = 3;

// Why each workload and program set was chosen, with measured
// properties, is in NOTES.md beside this file.
const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = {
        {"trace_hot", driver::VmKind::PyPyJit, 2.0,
         {"spectral_norm", "mandelbrot", "crypto_pyaes", "float",
          "nbody_modified", "chameneosredux", "threadring", "bm_mdp",
          "fannkuch"}},
        {"trace_churn", driver::VmKind::PyPyJit, 3.6,
         {"hexiom2", "go", "ai", "pyflate_fast", "eparse", "meteor_contest",
          "twisted_tcp", "raytrace_simple", "spambayes"}},
        {"interp_only", driver::VmKind::PyPyNoJit, 4.0,
         {"richards", "chaos", "telco", "django", "spitfire", "json_bench",
          "bm_mako", "genshi_xml", "sympy_str", "sympy_integrate",
          "pidigits", "binarytrees", "knucleotide", "regexdna", "revcomp",
          "fasta", "twisted_iteration", "eparse", "go", "ai"}},
    };
    return defs;
}

/** Source-level overrides that silently change the measured program. */
const char *const kRefusedEnv[] = {
    "XLVM_NO_SIM_MEMO", "XLVM_NO_SIM_SUPERBLOCK", "XLVM_NO_FUSE",
    "XLVM_TIER_MODE",   "XLVM_INJECT",
};

/** Goldens the reference totals are checked against, in lookup order. */
const char *const kGoldenFiles[] = {"fig5.json", "fig2.json", "table2.json"};

const std::string kSourceDir = HOSTBENCH_SOURCE_DIR;

[[noreturn]] void
die(const std::string &msg, int code = 2)
{
    std::fprintf(stderr, "hostbench: %s\n", msg.c_str());
    std::exit(code);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        die("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

report::Json
readJson(const std::string &path)
{
    std::string err;
    report::Json doc = report::Json::parse(readFile(path), &err);
    if (!doc.isObject())
        die(path + ": " + (err.empty() ? "not a JSON object" : err));
    return doc;
}

struct Totals
{
    uint64_t instructions = 0;
    uint64_t cyclesFp = 0;
    uint64_t annotations = 0;
    bool operator==(const Totals &) const = default;
};

using PairKey = std::pair<std::string, std::string>; // (program, vm name)

/** Modeled totals of every run in a metrics report, by (program, VM). */
std::map<PairKey, Totals>
totalsOf(const report::Json &doc, const std::string &path)
{
    std::map<PairKey, Totals> out;
    const report::Json *runs = doc.get("runs");
    if (!runs || !runs->isArray())
        die(path + ": no runs array");
    for (const report::Json &r : runs->items()) {
        const report::Json *w = r.get("workload");
        const report::Json *vm = r.get("vm");
        const report::Json *m = r.get("metrics");
        const report::Json *t = m ? m->get("totals") : r.get("totals");
        if (!w || !vm || !t)
            die(path + ": run without workload, vm or totals");
        auto field = [&](const char *k) {
            const report::Json *v = t->get(k);
            if (!v || !v->isInteger())
                die(path + ": totals." + k + " missing");
            return v->asUInt();
        };
        out[{w->asString(), vm->asString()}] =
            Totals{field("instructions"), field("cycles_fp"),
                   field("annotations")};
    }
    return out;
}

/**
 * Die if any of @p totals disagrees with a golden report that ran the
 * same (program, VM) pair. Pairs no golden covers are not checked.
 */
void
checkAgainstGoldens(const std::map<PairKey, Totals> &totals)
{
    for (const char *g : kGoldenFiles) {
        std::string path = kSourceDir + "/../tests/golden/" + g;
        for (const auto &[key, tot] : totalsOf(readJson(path), path)) {
            auto it = totals.find(key);
            if (it != totals.end() && !(it->second == tot)) {
                die("modeled totals of " + key.first + " on " + key.second +
                    " disagree with " + path);
            }
        }
    }
}

/** The reference totals, checked against the goldens. */
std::map<PairKey, Totals>
loadReference()
{
    std::string refPath = kSourceDir + "/reference.json";
    std::map<PairKey, Totals> ref = totalsOf(readJson(refPath), refPath);
    checkAgainstGoldens(ref);
    return ref;
}

/** The VmContext configuration runWorkload builds for @p o. */
vm::VmConfig
contextConfig(const driver::RunOptions &o)
{
    vm::VmConfig cfg;
    cfg.flavor = obj::VmFlavor::RPython;
    cfg.jit.enableJit = o.vm == driver::VmKind::PyPyJit;
    cfg.jit.loopThreshold = o.loopThreshold;
    cfg.jit.bridgeThreshold = o.bridgeThreshold;
    cfg.jit.fuseMicroOps = o.jitFuseMicroOps;
    cfg.jit.tierMode = o.tierMode;
    cfg.jit.tier1Threshold = o.tier1Threshold;
    cfg.jit.tier2Threshold = o.tier2Threshold;
    cfg.jit.stormThreshold = o.stormThreshold;
    cfg.jit.blacklistCooldown = o.blacklistCooldown;
    cfg.core.simMemo = o.simMemo;
    cfg.core.simSuperblock = o.simSuperblock;
    cfg.maxInstructions = o.maxInstructions;
    cfg.workSampleInstrs = o.workSampleInstrs;
    return cfg;
}

LayerCounts
countsOf(const driver::RunResult &r)
{
    LayerCounts c;
    for (const sim::PerfCounters &p : r.phaseCounters) {
        c.instructions += p.instructions;
        c.cyclesFp += p.cyclesFp;
        c.annotations += p.annotations;
    }
    c.cacheAccesses =
        r.icacheHits + r.icacheMisses + r.dcacheHits + r.dcacheMisses;
    c.replayedInstructions =
        r.memoReplayedInstructions + r.sbReplayedInstructions;
    c.memoHits = r.memoHits;
    c.memoAttempts = r.memoHits + r.memoMisses;
    c.sbHits = r.sbHits;
    c.sbAttempts = r.sbHits + r.sbMisses;
    c.sbDivergences = r.sbDivergences;
    c.work = r.work;
    c.spaceOps = r.spaceOps;
    for (const xlayer::AotFunctionStats &f : r.aotFunctions)
        c.aotCalls += f.calls;
    c.compiles = r.loopsCompiled + r.bridgesCompiled;
    c.tracesAborted = r.tracesAborted;
    c.irNodesCompiled = r.irNodesCompiled;
    c.compileInsts = r.tier1CompileInsts + r.tier2CompileInsts;
    c.traceEnters = r.traceEnters;
    c.deopts = r.deopts;
    c.gcCollections = r.gcMinor + r.gcMajor;
    c.gcAllocations = r.gcAllocations;
    c.gcFreedObjects = r.gcFreedObjects;
    c.gcPromotedBytes = r.gcPromotedBytes;
    return c;
}

/** One program of the workload, ready to run. */
struct Program
{
    driver::RunOptions opts;
    std::string source; ///< instantiated MiniPy source (front-end input)
    hostbench::Expected want;
    std::optional<LayerCounts> first; ///< first repetition's counts
};

driver::RunResult
runGuarded(const driver::RunOptions &opts)
{
    try {
        return driver::runWorkload(opts);
    } catch (const std::exception &e) {
        driver::RunResult r;
        r.error = e.what();
        if (r.error.empty())
            r.error = "exception";
        return r;
    }
}

std::string
check(Program &p, const driver::RunResult &r)
{
    hostbench::RunFacts facts;
    facts.error = r.error;
    facts.completed = r.completed;
    facts.output = r.output;
    facts.counts = countsOf(r);
    std::string why = hostbench::checkRun(
        facts, p.want, p.first ? &*p.first : nullptr);
    if (why.empty() && !p.first)
        p.first = facts.counts;
    return why.empty() ? why : p.opts.workload + ": " + why;
}

uint64_t
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
    return 0;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    int trace = 0;
    std::string spansPath;
    bool recordReference = false;
};

uint64_t
parseUInt(const std::string &flag, const char *text, uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (!*text || *end || errno || text[0] == '-' || v > max)
        die(flag + " wants an integer in [0, " + std::to_string(max) +
            "], got '" + text + "'");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string f = argv[i];
        if (f == "--record-reference") {
            a.recordReference = true;
            continue;
        }
        if (i + 1 >= argc)
            die("missing value for " + f);
        const char *v = argv[++i];
        if (f == "--workload")
            a.workload = v;
        else if (f == "--seed")
            a.seed = parseUInt(f, v, UINT64_MAX);
        else if (f == "--seconds")
            a.seconds = int(parseUInt(f, v, 3600));
        else if (f == "--trace")
            a.trace = int(parseUInt(f, v, 1));
        else if (f == "--spans")
            a.spansPath = v;
        else
            die("unknown argument " + f);
    }
    if (!a.recordReference && a.workload.empty())
        die("--workload is required");
    if (!a.recordReference && a.seconds < 1)
        die("--seconds must be at least 1");
    return a;
}

std::vector<Program>
prepare(const WorkloadDef &def, const std::map<PairKey, Totals> &ref)
{
    std::vector<Program> out;
    for (const char *name : def.programs) {
        const workloads::Workload *w = workloads::findWorkload(name);
        if (!w)
            die(std::string("unknown program ") + name);
        Program p;
        p.opts = bench::baseOptions(name, def.vm);
        p.source = workloads::instantiate(*w, p.opts.scale);
        auto it = ref.find({name, driver::vmKindName(def.vm)});
        if (it == ref.end()) {
            die(std::string("no reference totals for ") + name + " on " +
                driver::vmKindName(def.vm) + "; see --record-reference");
        }
        p.want.finalLine = w->expect;
        p.want.instructions = it->second.instructions;
        p.want.cyclesFp = it->second.cyclesFp;
        p.want.annotations = it->second.annotations;
        out.push_back(std::move(p));
    }
    return out;
}

int
recordReference()
{
    std::map<PairKey, Totals> seen;
    report::Json runs = report::Json::array();
    for (const WorkloadDef &def : workloadDefs()) {
        for (const char *name : def.programs) {
            PairKey key{name, driver::vmKindName(def.vm)};
            if (seen.count(key))
                continue;
            driver::RunOptions o = bench::baseOptions(name, def.vm);
            driver::RunResult r = runGuarded(o);
            if (!r.error.empty() || !r.completed)
                die(std::string(name) + " failed: " + r.error, 1);
            LayerCounts c = countsOf(r);
            seen[key] = Totals{c.instructions, c.cyclesFp, c.annotations};
            report::Json totals = report::Json::object();
            totals.set("instructions", c.instructions);
            totals.set("cycles_fp", c.cyclesFp);
            totals.set("annotations", c.annotations);
            report::Json run = report::Json::object();
            run.set("workload", key.first);
            run.set("vm", key.second);
            run.set("totals", std::move(totals));
            runs.push(std::move(run));
        }
    }
    checkAgainstGoldens(seen);
    report::Json doc = report::Json::object();
    doc.set("runs", std::move(runs));
    std::printf("%s\n", doc.dump(2).c_str());
    return 0;
}

/**
 * Host seconds to construct @p p's VmContext and run its front end,
 * best of kSetupTries back-to-back tries. One sample is taken after each
 * untraced run, so the samples span the whole run; setup_s sums each
 * program's median sample.
 */
constexpr int kSetupTries = 5;

double
setupSample(const Program &p)
{
    double best = 0.0;
    for (int t = 0; t < kSetupTries; ++t) {
        Clock::time_point t0 = Clock::now();
        vm::VmContext ctx(contextConfig(p.opts));
        auto code = minipy::compileSource(p.source, ctx.space);
        double s = secondsSince(t0);
        best = t == 0 ? s : std::min(best, s);
    }
    return best;
}

/** Everything one benchmark run collects. */
struct Samples
{
    explicit Samples(size_t programs)
        : runMs(programs), tracedRunMs(programs), setupS(programs)
    {
    }

    hostbench::Tally tally;
    /**
     * Host ms of each untraced run (runWorkload + addRun), by program, at
     * the reference host speed.
     */
    std::vector<std::vector<double>> runMs;
    /** The same for traced runs, from the vm.run and report.add_run spans. */
    std::vector<std::vector<double>> tracedRunMs;
    /** Set-up samples by program, at the reference host speed. */
    std::vector<std::vector<double>> setupS;
    double rawRunSeconds = 0.0; ///< untraced runs as measured
    hostbench::HostSpeedProbe probe;
    std::vector<double> passProbeMs; ///< median probe sweep of each pass
    hostbench::SpanRecorder spans;
    /** Program index of each run id; run 0 stands for the pass spans. */
    std::vector<size_t> programOfRun = {0};
};

/**
 * Run one pass; @p traced records spans instead of set-up samples. The
 * probe is timed after every run, and the pass's timings are scaled by
 * its median sweep to the reference host speed.
 */
void
runPass(const WorkloadDef &def, std::vector<Program> &progs, Samples &s,
        uint64_t seed, uint64_t pass, bool traced)
{
    report::MetricsRegistry registry(def.name);
    hostbench::SpanRecorder &sp = s.spans;
    std::vector<size_t> programOf;
    std::vector<double> runMs, setupS, probeMs;
    if (traced)
        sp.begin("pass", 0);
    for (size_t i : hostbench::passOrder(progs.size(), seed, pass)) {
        Program &p = progs[i];
        uint32_t run = uint32_t(s.programOfRun.size());
        s.programOfRun.push_back(i);
        driver::RunResult r;
        double ms = 0.0;
        if (traced) {
            sp.begin("run", run);
            {
                sp.begin("vm.context", run);
                vm::VmContext ctx(contextConfig(p.opts));
                sp.end();
                sp.begin("minipy.compile", run);
                auto code = minipy::compileSource(p.source, ctx.space);
                sp.end();
            }
            uint32_t vmRun = sp.begin("vm.run", run);
            r = runGuarded(p.opts);
            sp.end();
            uint32_t addRun = sp.begin("report.add_run", run);
            registry.addRun(p.opts, r);
            sp.end();
            sp.end();
            const auto &all = sp.spans();
            ms = 1e-6 * double(all[vmRun].durationNs() +
                               all[addRun].durationNs());
        } else {
            Clock::time_point t0 = Clock::now();
            r = runGuarded(p.opts);
            registry.addRun(p.opts, r);
            ms = 1e3 * secondsSince(t0);
        }
        s.tally.record(check(p, r));
        programOf.push_back(i);
        runMs.push_back(ms);
        if (!traced)
            setupS.push_back(setupSample(p));
        probeMs.push_back(s.probe.sampleMs());
    }
    if (traced)
        sp.end();

    double probe = hostbench::median(probeMs);
    s.passProbeMs.push_back(probe);
    for (size_t k = 0; k < programOf.size(); ++k) {
        size_t i = programOf[k];
        double ms = hostbench::atReferenceSpeed(runMs[k], probe);
        if (traced) {
            s.tracedRunMs[i].push_back(ms);
        } else {
            s.runMs[i].push_back(ms);
            s.setupS[i].push_back(
                hostbench::atReferenceSpeed(setupS[k], probe));
            s.rawRunSeconds += 1e-3 * runMs[k];
        }
    }
}

/** Per-layer self time of every traced run, in ms, by program. */
struct LayerTimes
{
    explicit LayerTimes(size_t programs)
        : context(programs), compile(programs), run(programs), addRun(programs)
    {
    }

    std::vector<std::vector<double>> context, compile, run, addRun;
};

LayerTimes
layerTimes(const Samples &s, size_t programs)
{
    const std::vector<hostbench::Span> &spans = s.spans.spans();
    std::vector<int64_t> self = hostbench::selfTimesNs(spans);
    LayerTimes t(programs);
    std::map<uint32_t, int64_t> setupOfRun; // context + compile per run
    for (const hostbench::Span &sp : spans) {
        if (sp.run == 0)
            continue;
        size_t i = s.programOfRun[sp.run];
        double ms = 1e-6 * double(self[sp.id]);
        if (sp.name == "vm.context") {
            t.context[i].push_back(ms);
            setupOfRun[sp.run] += self[sp.id];
        } else if (sp.name == "minipy.compile") {
            t.compile[i].push_back(ms);
            setupOfRun[sp.run] += self[sp.id];
        } else if (sp.name == "vm.run") {
            // runWorkload repeats the context construction and front end
            // its sibling spans timed; count only the execution.
            t.run[i].push_back(1e-6 * double(self[sp.id] - setupOfRun[sp.run]));
        } else if (sp.name == "report.add_run") {
            t.addRun[i].push_back(ms);
        }
    }
    return t;
}

/**
 * Median over passes of the per-pass sum of @p perProgram, whose every
 * program has one sample per pass, in pass order.
 */
double
medianPassMs(const std::vector<std::vector<double>> &perProgram)
{
    std::vector<double> sums;
    for (const std::vector<double> &v : perProgram) {
        sums.resize(std::max(sums.size(), v.size()), 0.0);
        for (size_t k = 0; k < v.size(); ++k)
            sums[k] += v[k];
    }
    return hostbench::median(sums);
}

/** All samples of every program. */
std::vector<double>
flatten(const std::vector<std::vector<double>> &perProgram)
{
    std::vector<double> all;
    for (const std::vector<double> &v : perProgram)
        all.insert(all.end(), v.begin(), v.end());
    return all;
}

void
writeSpans(const std::string &path, const std::vector<hostbench::Span> &spans)
{
    // Chrome trace-event JSON: opens in ui.perfetto.dev.
    report::Json events = report::Json::array();
    for (const hostbench::Span &s : spans) {
        report::Json args = report::Json::object();
        args.set("id", uint64_t(s.id));
        args.set("parent", int64_t(s.parent));
        args.set("run", uint64_t(s.run));
        report::Json e = report::Json::object();
        e.set("name", s.name);
        e.set("ph", "X");
        e.set("pid", 1);
        e.set("tid", 1);
        e.set("ts", double(s.startNs) * 1e-3);
        e.set("dur", double(s.durationNs()) * 1e-3);
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    report::Json doc = report::Json::object();
    doc.set("traceEvents", std::move(events));
    std::ofstream out(path, std::ios::binary);
    out << doc.dump(0) << "\n";
    if (!out)
        die("cannot write spans to " + path, 1);
}

struct MetricOut
{
    report::Json metrics = report::Json::object();

    void
    add(const std::string &name, report::Json value, const char *unit)
    {
        if (!hostbench::validMetricName(name))
            die("invalid metric name " + name);
        report::Json m = report::Json::object();
        m.set("value", std::move(value));
        m.set("unit", unit);
        metrics.set(name, std::move(m));
    }
};

double
ratio(uint64_t num, uint64_t den)
{
    return den ? double(num) / double(den) : 0.0;
}

void
addLayerMetrics(MetricOut &out, const Samples &s, const LayerCounts &c)
{
    LayerTimes t = layerTimes(s, s.runMs.size());
    double runMs = medianPassMs(t.run);
    out.add("minipy.compile_ms", medianPassMs(t.compile), "ms");
    out.add("vm.context_ms", medianPassMs(t.context), "ms");
    out.add("vm.run_ms", runMs, "ms");
    out.add("report.add_run_ms", medianPassMs(t.addRun), "ms");
    out.add("sim.host_ns_per_inst", 1e6 * runMs / double(c.instructions),
            "ns/inst");
    out.add("sim.instructions", c.instructions, "count");
    out.add("sim.cache_accesses", c.cacheAccesses, "count");
    out.add("sim.replayed_share", ratio(c.replayedInstructions, c.instructions),
            "ratio");
    out.add("sim.memo_hit_rate", ratio(c.memoHits, c.memoAttempts), "ratio");
    out.add("sim.sb_hit_rate", ratio(c.sbHits, c.sbAttempts), "ratio");
    out.add("sim.sb_divergences", c.sbDivergences, "count");
    out.add("minipy.work", c.work, "count");
    out.add("obj.space_ops", c.spaceOps, "count");
    out.add("rt.aot_calls", c.aotCalls, "count");
    out.add("jit.compiles", c.compiles, "count");
    out.add("jit.traces_aborted", c.tracesAborted, "count");
    out.add("jit.abort_ratio",
            ratio(c.tracesAborted, c.compiles + c.tracesAborted), "ratio");
    out.add("jit.ir_nodes_compiled", c.irNodesCompiled, "count");
    out.add("jit.compile_insts", c.compileInsts, "count");
    out.add("vm.trace_enters", c.traceEnters, "count");
    out.add("vm.deopts", c.deopts, "count");
    out.add("vm.deopts_per_enter", ratio(c.deopts, c.traceEnters), "ratio");
    out.add("gc.collections", c.gcCollections, "count");
    out.add("gc.allocations", c.gcAllocations, "count");
    out.add("gc.freed_objects", c.gcFreedObjects, "count");
    out.add("gc.promoted_bytes", c.gcPromotedBytes, "bytes");
    out.add("xlayer.annotations", c.annotations, "count");
    out.add("xlayer.annotations_per_inst", ratio(c.annotations, c.instructions),
            "ratio");
    out.add("trace.overhead_ms",
            hostbench::median(flatten(s.tracedRunMs)) -
                hostbench::median(flatten(s.runMs)),
            "ms");
}

/** End-to-end metrics of the untraced passes; false if there is no tail. */
bool
addEndToEndMetrics(MetricOut &out, const Samples &s, const LayerCounts &c,
                   uint64_t passes)
{
    std::vector<double> runs = flatten(s.runMs);
    hostbench::Tail tail;
    if (!hostbench::tailPercentile(runs, &tail)) {
        std::printf("too few runs (%zu) for a tail percentile\n", runs.size());
        return false;
    }
    double runSeconds = 0.0;
    for (double ms : runs)
        runSeconds += 1e-3 * ms;
    double mips = 1e-6 * double(c.instructions * passes) / runSeconds;
    double p50 = hostbench::median(runs);
    double setupS = 0.0;
    for (const std::vector<double> &v : s.setupS)
        setupS += hostbench::median(v);
    // The probe's table is resident for the whole process.
    double rawRssMb = double(peakRssKb()) / 1024.0;
    double rssMb =
        rawRssMb - double(hostbench::HostSpeedProbe::kTableBytes) / 1048576.0;
    std::printf("host speed: median probe sweep %.4f ms per pass, from %.4f "
                "to %.4f ms (reference %.1f ms); timings below are at the "
                "reference speed\n",
                hostbench::median(s.passProbeMs),
                *std::min_element(s.passProbeMs.begin(), s.passProbeMs.end()),
                *std::max_element(s.passProbeMs.begin(), s.passProbeMs.end()),
                hostbench::kProbeReferenceMs);
    std::printf("sim_mips %.4f Minst/s (%llu instructions in %.3f s of runs; "
                "%.4f Minst/s in %.3f s as measured)\n",
                mips, (unsigned long long)(c.instructions * passes),
                runSeconds,
                1e-6 * double(c.instructions * passes) / s.rawRunSeconds,
                s.rawRunSeconds);
    std::printf("run_ms_p50 %.4f ms (n=%zu)\n", p50, runs.size());
    std::printf("run_ms_tail %.4f ms (p%.2f, n=%zu, %zu beyond)\n",
                tail.value, tail.percentile, tail.samples, tail.beyond);
    std::printf("setup_s %.6f s (sum of each program's median of %llu "
                "samples, each the best of %d tries)\n",
                setupS, (unsigned long long)passes, kSetupTries);
    std::printf("peak_rss_mb %.3f MB (VmHWM %.3f MB less the probe's "
                "table)\n",
                rssMb, rawRssMb);
    out.add("sim_mips", mips, "Minst/s");
    out.add("run_ms_p50", p50, "ms");
    out.add("run_ms_tail", tail.value, "ms");
    out.add("setup_s", setupS, "s");
    out.add("peak_rss_mb", rssMb, "MB");
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    for (const char *var : kRefusedEnv) {
        if (std::getenv(var))
            die(std::string(var) + " is set; it changes the program being "
                "measured. Unset it to run the benchmark.");
    }
    if (args.recordReference)
        return recordReference();

    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : workloadDefs()) {
        if (args.workload == d.name)
            def = &d;
    }
    if (!def)
        die("unknown workload " + args.workload +
            " (trace_hot, trace_churn, interp_only)");

    std::vector<Program> progs = prepare(*def, loadReference());
    const bool traceMode = args.trace == 1;
    // A fixed amount of work per --seconds, so every run of a workload
    // has the same sample structure and the same peak-RSS history.
    const uint64_t passes = std::max<uint64_t>(
        kMinPasses, uint64_t(std::llround(args.seconds / def->passS)));

    Samples s(progs.size());
    for (uint64_t pass = 0; pass < passes; ++pass)
        runPass(*def, progs, s, args.seed, pass, traceMode && pass % 2 == 1);

    LayerCounts perPass;
    for (const Program &p : progs) {
        if (p.first)
            perPass += *p.first;
    }

    std::printf("hostbench: workload=%s vm=%s seed=%llu seconds=%d trace=%d\n",
                def->name, driver::vmKindName(def->vm),
                (unsigned long long)args.seed, args.seconds, args.trace);
    std::printf("hostbench: build_type=%s nproc=%u threads=1 passes=%llu "
                "programs=%zu\n",
                HOSTBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
                (unsigned long long)passes, progs.size());
    std::printf("fail_ratio %.6g (%llu of %llu runs failed)\n",
                s.tally.failRatio(), (unsigned long long)s.tally.failed,
                (unsigned long long)s.tally.attempted);
    if (s.tally.failed)
        std::printf("first failure: %s\n", s.tally.firstFailure.c_str());

    MetricOut out;
    bool ok = s.tally.failed == 0;
    if (!traceMode) {
        ok = addEndToEndMetrics(out, s, perPass, passes) && ok;
    } else {
        addLayerMetrics(out, s, perPass);
        for (const auto &[name, m] : out.metrics.members()) {
            std::printf("%s %s %s\n", name.c_str(),
                        m.get("value")->dump(0).c_str(),
                        m.get("unit")->asString().c_str());
        }
        if (!args.spansPath.empty()) {
            writeSpans(args.spansPath, s.spans.spans());
            std::printf("spans: %zu written to %s\n", s.spans.spans().size(),
                        args.spansPath.c_str());
        }
    }

    report::Json result = report::Json::object();
    result.set("correct", ok);
    result.set("attempted", s.tally.attempted);
    result.set("failed", s.tally.failed);
    result.set("metrics", std::move(out.metrics));
    std::printf("%s\n", result.dump(0).c_str());
    return ok ? 0 : 1;
}
