/**
 * @file
 * The paper's sweeps and views (see repro.h). A sweep lists the runs
 * its metrics report records; each view prints one table or figure of
 * the paper from those runs' results. "Time (s)" is simulated cycles
 * at 3 GHz: the views reproduce shapes (orderings, dominant phases,
 * crossovers), not the paper's absolute hardware numbers; EXPERIMENTS.md
 * states the shape each view reproduces and how it compares.
 */

#include <array>
#include <functional>
#include <map>

#include "bench_common.h"
#include "common/stats.h"
#include "jit/ir.h"
#include "native/clbg_native.h"
#include "repro.h"
#include "rt/aot_registry.h"
#include "xlayer/phase.h"

namespace xlvm {
namespace bench {

namespace {

using driver::RunOptions;
using driver::RunResult;
using driver::VmKind;
using Names = std::vector<std::string>;

/** One run per name and VM, name-major. */
std::vector<RunOptions>
runsFor(const Names &names, std::initializer_list<VmKind> vms)
{
    std::vector<RunOptions> runs;
    for (const std::string &name : names) {
        for (VmKind vm : vms)
            runs.push_back(baseOptions(name, vm));
    }
    return runs;
}

/** One row of per-phase cycle shares (Figures 2 and 4). */
void
phaseRow(const char *label_fmt, const char *label, const RunResult &r)
{
    auto pct = [&](xlayer::Phase p) {
        return 100.0 * r.phaseShares[uint32_t(p)];
    };
    std::printf(label_fmt, label);
    std::printf(" %6.1f%% %7.1f%% %5.1f%% %8.1f%% %5.1f%% %9.1f%%\n",
                pct(xlayer::Phase::Interpreter),
                pct(xlayer::Phase::Tracing), pct(xlayer::Phase::Jit),
                pct(xlayer::Phase::JitCall), pct(xlayer::Phase::Gc),
                pct(xlayer::Phase::Blackhole));
}

/** CLBG workloads (those with a MiniRkt translation for Figure 4). */
template <bool RktOnly>
std::vector<std::string>
clbgWorkloads()
{
    std::vector<std::string> names;
    for (const workloads::Workload &w : workloads::clbgSuite()) {
        if (!RktOnly || !w.rktSource.empty())
            names.push_back(w.name);
    }
    return names;
}

// ---- Table I: PyPy-suite times, IPC and branch MPKI per VM

std::vector<RunOptions>
table1Runs(const Names &names, const Results &)
{
    return runsFor(names, {VmKind::CPythonLike, VmKind::PyPyNoJit,
                           VmKind::PyPyJit});
}

void
table1View(const SweepData &d)
{
    std::printf("Table I: PyPy Benchmark Suite Performance (simulated; "
                "time = cycles @ 3GHz)\n");
    std::printf("%-20s | %9s %5s %5s | %9s %6s %5s %5s | %9s %6s %5s "
                "%5s\n",
                "Benchmark", "CPy* t(s)", "IPC", "MPKI", "noJIT t(s)",
                "vC", "IPC", "MPKI", "JIT t(s)", "vC", "IPC", "MPKI");
    printRule(118);

    struct Row
    {
        std::string name;
        double speedup;
        std::string text;
    };
    std::vector<Row> rows;
    std::vector<double> speedups;

    for (size_t i = 0; i < d.names.size(); ++i) {
        const std::string &name = d.names[i];
        const RunResult &cpy = *d.res[3 * i];
        const RunResult &nojit = *d.res[3 * i + 1];
        const RunResult &jit = *d.res[3 * i + 2];

        if (cpy.output != jit.output || cpy.output != nojit.output) {
            std::printf("%-20s | OUTPUT MISMATCH\n", name.c_str());
            continue;
        }

        double vNo = cpy.seconds > 0 ? nojit.seconds / cpy.seconds : 0;
        double vJit = jit.seconds > 0 ? cpy.seconds / jit.seconds : 0;
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%-20s | %9.5f %5.2f %5.2f | %9.5f %5.2fx %5.2f "
                      "%5.2f | %9.5f %5.1fx %5.2f %5.2f",
                      name.c_str(), cpy.seconds, cpy.ipc, cpy.branchMpki,
                      nojit.seconds, vNo, nojit.ipc, nojit.branchMpki,
                      jit.seconds, vJit, jit.ipc, jit.branchMpki);
        rows.push_back({name, vJit, buf});
        speedups.push_back(vJit > 0 ? vJit : 1.0);
    }

    // The paper orders rows by JIT speedup over CPython.
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) {
                  return a.speedup > b.speedup;
              });
    for (const Row &r : rows)
        std::printf("%s\n", r.text.c_str());
    printRule(118);
    std::printf("geomean JIT speedup over CPython*: %.2fx\n",
                geomean(speedups));
    std::printf("(vC columns: noJIT shows slowdown factor vs CPython*, "
                "JIT shows speedup)\n");
}

// ---- Table II: CLBG times on CPython*, PyPy*, Racket*, Pycket*, C++*

// Each workload contributes 2 runs, plus 2 more (Racket*/Pycket*) when
// a MiniRkt translation exists.
std::vector<RunOptions>
table2Runs(const Names &names, const Results &)
{
    std::vector<RunOptions> runs;
    for (const workloads::Workload &w : workloads::clbgSuite()) {
        if (!contains(names, w.name))
            continue;
        runs.push_back(baseOptions(w.name, VmKind::CPythonLike));
        runs.push_back(baseOptions(w.name, VmKind::PyPyJit));
        if (!w.rktSource.empty()) {
            runs.push_back(baseOptions(w.name, VmKind::RacketLike));
            runs.push_back(baseOptions(w.name, VmKind::PycketJit));
        }
    }
    return runs;
}

std::vector<double>
table2Native(const Names &names)
{
    std::vector<double> secs;
    for (const std::string &name : names)
        secs.push_back(native::runNative(name));
    return secs;
}

void
table2View(const SweepData &d)
{
    std::printf("Table II: CLBG performance (simulated seconds; '-' = "
                "no implementation)\n");
    std::printf("%-16s %10s %10s %7s %10s %10s %7s %10s\n", "Benchmark",
                "CPython*", "PyPy*", "vC", "Racket*", "Pycket*", "vR",
                "C++*");
    printRule(92);

    // `base` is the workload's offset into the flat run list.
    size_t wi = 0, base = 0;
    for (const workloads::Workload &w : workloads::clbgSuite()) {
        if (!contains(d.names, w.name))
            continue;
        const RunResult &cpy = *d.res[base];
        const RunResult &pypy = *d.res[base + 1];
        bool outputsAgree = cpy.output == pypy.output;

        std::string racketCol = "-", pycketCol = "-", vrCol = "-";
        if (!w.rktSource.empty()) {
            const RunResult &racket = *d.res[base + 2];
            const RunResult &pycket = *d.res[base + 3];
            racketCol = formatFixed(racket.seconds, 5);
            pycketCol = formatFixed(pycket.seconds, 5);
            if (pycket.seconds > 0) {
                vrCol = formatFixed(racket.seconds / pycket.seconds, 2) +
                        "x";
            }
        }
        base += w.rktSource.empty() ? 2 : 4;
        std::string nativeCol = "-";
        double nativeSecs = d.native[wi++];
        if (nativeSecs >= 0)
            nativeCol = formatFixed(nativeSecs, 5);

        double vc = pypy.seconds > 0 ? cpy.seconds / pypy.seconds : 0;
        std::printf("%-16s %10.5f %10.5f %6.2fx %10s %10s %7s %10s%s\n",
                    w.name.c_str(), cpy.seconds, pypy.seconds, vc,
                    racketCol.c_str(), pycketCol.c_str(), vrCol.c_str(),
                    nativeCol.c_str(),
                    outputsAgree ? "" : "  [MISMATCH]");
    }
    printRule(92);
    std::printf("vC = PyPy* speedup over CPython*; vR = Pycket* speedup "
                "over Racket*.\n");
}

// ---- Figure 2: share of cycles per framework phase

std::vector<RunOptions>
fig2Runs(const Names &names, const Results &)
{
    return runsFor(names, {VmKind::PyPyJit});
}

void
fig2View(const SweepData &d)
{
    std::printf("Figure 2: time spent in each phase (%% of cycles)\n");
    std::printf("%-20s %7s %8s %6s %9s %6s %10s\n", "Benchmark",
                "interp", "tracing", "jit", "jit-call", "gc",
                "blackhole");
    printRule(78);

    for (size_t i = 0; i < d.names.size(); ++i)
        phaseRow("%-20s", d.names[i].c_str(), *d.res[i]);
    printRule(78);
}

// ---- Table III (fig2 sweep): AOT functions >= 10% of execution

void
table3View(const SweepData &d)
{
    std::printf("Table III: significant AOT-compiled functions from "
                "meta-traces (>= 10%% of execution)\n");
    std::printf("%-20s %6s  %s\n", "Benchmark", "%", "Src Function");
    printRule(78);

    const rt::AotRegistry &reg = rt::AotRegistry::instance();
    for (size_t i = 0; i < d.names.size(); ++i) {
        const std::string &name = d.names[i];
        const RunResult &r = *d.res[i];
        bool any = false;
        for (const auto &fn : r.aotFunctions) {
            double share = r.cycles > 0 ? fn.cycles / r.cycles : 0;
            if (share < 0.10)
                continue;
            const rt::AotFunction &meta = reg.fn(fn.fnId);
            std::printf("%-20s %5.1f%%  %c   %s\n",
                        any ? "" : name.c_str(), 100.0 * share,
                        rt::aotSourceTag(meta.source),
                        meta.name.c_str());
            any = true;
        }
        if (!any)
            std::printf("%-20s   (no AOT entry above 10%%)\n",
                        name.c_str());
    }
    printRule(78);
    std::printf("Src: R = RPython type intrinsics, L = RPython stdlib, "
                "C = external C, I = interpreter, M = module\n");
}

// ---- Table IV (fig2 sweep): per-phase IPC and branch behaviour

void
table4View(const SweepData &d)
{
    std::array<RunningStat, xlayer::kNumPhases> ipc, brPerInst, missRate;

    for (const RunResult *res : d.res) {
        std::array<sim::PerfCounters, xlayer::kNumPhases> phaseCounters =
            res->phaseCounters;
        // Like the paper, fold AOT calls from JIT code into the JIT
        // phase for this table.
        phaseCounters[uint32_t(xlayer::Phase::Jit)].accumulate(
            phaseCounters[uint32_t(xlayer::Phase::JitCall)]);
        phaseCounters[uint32_t(xlayer::Phase::JitCall)] =
            sim::PerfCounters();
        for (uint32_t p = 0; p < xlayer::kNumPhases; ++p) {
            const sim::PerfCounters &c = phaseCounters[p];
            // Skip phases with too little data to be meaningful.
            if (c.instructions < 5000)
                continue;
            ipc[p].add(c.ipc());
            brPerInst[p].add(c.branchRate());
            missRate[p].add(c.branchMissRate());
        }
    }

    std::printf("Table IV: microarchitectural behaviour by phase "
                "(mean +/- stddev across PyPy-suite workloads)\n");
    std::printf("%-12s %14s %20s %18s\n", "Phase", "IPC",
                "branches/inst", "branch miss rate");
    printRule(70);
    const xlayer::Phase order[] = {
        xlayer::Phase::Interpreter, xlayer::Phase::Tracing,
        xlayer::Phase::Jit, xlayer::Phase::Gc,
        xlayer::Phase::Blackhole};
    for (xlayer::Phase p : order) {
        uint32_t i = uint32_t(p);
        if (ipc[i].count() == 0)
            continue;
        std::printf("%-12s %6.2f +/- %.2f    %6.3f +/- %.3f   "
                    "%6.3f +/- %.3f\n",
                    xlayer::phaseName(p), ipc[i].mean(), ipc[i].stddev(),
                    brPerInst[i].mean(), brPerInst[i].stddev(),
                    missRate[i].mean(), missRate[i].stddev());
    }
    printRule(70);
}

// ---- Figure 3: phase timelines of the best/worst speedups

std::vector<RunOptions>
fig3Runs(const Names &names, const Results &probes)
{
    std::vector<RunOptions> runs = fig2Runs(names, {});
    // ~40 bins across the run.
    for (size_t i = 0; i < runs.size(); ++i) {
        runs[i].timelineBin =
            std::max<uint64_t>(probes[i]->instructions / 40, 2000);
    }
    return runs;
}

void
fig3View(const SweepData &d)
{
    std::printf("Figure 3: phase timeline for best- and worst-performing "
                "benchmarks\n");
    for (size_t i = 0; i < d.names.size(); ++i) {
        const RunResult &r = *d.res[i];
        std::printf("\n%s (bin = %s instructions)\n", d.names[i].c_str(),
                    formatCount(d.runs[i].timelineBin).c_str());
        std::printf("%12s  %-9s %s\n", "instr", "dominant",
                    "interp/trace/jit/call/gc/bh  (20-char stacked bar)");
        const char phaseChar[] = {'i', 't', 'J', 'c', 'g', 'b', 'n'};
        for (const auto &tb : r.timeline) {
            double total = 0;
            for (double c : tb.cycles)
                total += c;
            if (total <= 0)
                continue;
            uint32_t dom = 0;
            std::string stacked;
            for (uint32_t p = 0; p < 6; ++p) {
                if (tb.cycles[p] > tb.cycles[dom])
                    dom = p;
                int chars = int(20.0 * tb.cycles[p] / total + 0.5);
                stacked += std::string(chars, phaseChar[p]);
            }
            stacked.resize(20, ' ');
            std::printf("%12s  %-9s [%s]\n",
                        formatCount(tb.instrEnd).c_str(),
                        xlayer::phaseName(xlayer::Phase(dom)),
                        stacked.c_str());
        }
    }
}

// ---- Figure 4: PyPy* vs Pycket* phase mixes on CLBG

std::vector<RunOptions>
fig4Runs(const Names &names, const Results &)
{
    return runsFor(names, {VmKind::PyPyJit, VmKind::PycketJit});
}

void
fig4View(const SweepData &d)
{
    std::printf("Figure 4: phase breakdown for PyPy* and Pycket* on "
                "CLBG\n");
    std::printf("%-18s %7s %8s %6s %9s %6s %10s\n", "Benchmark",
                "interp", "tracing", "jit", "jit-call", "gc",
                "blackhole");
    printRule(78);
    for (size_t i = 0; i < d.names.size(); ++i) {
        std::printf("%s\n", d.names[i].c_str());
        phaseRow("  %-8s", "PyPy*", *d.res[2 * i]);
        phaseRow("  %-8s", "Pycket*", *d.res[2 * i + 1]);
    }
    printRule(78);
}

// ---- Figure 5: JIT warmup break-even points

std::vector<RunOptions>
fig5Runs(const Names &names, const Results &)
{
    std::vector<RunOptions> runs = table1Runs(names, {});
    for (size_t jit = 2; jit < runs.size(); jit += 3)
        runs[jit].workSampleInstrs = 20000;
    return runs;
}

void
fig5View(const SweepData &d)
{
    std::printf("Figure 5: JIT warmup break-even points "
                "(instructions; window capped)\n");
    std::printf("%-20s %14s %16s %12s\n", "Benchmark",
                "vs CPython*", "vs PyPy*-nojit", "final speedup");
    printRule(70);

    for (size_t i = 0; i < d.names.size(); ++i) {
        const std::string &name = d.names[i];
        const RunResult &cpy = *d.res[3 * i];
        const RunResult &nojit = *d.res[3 * i + 1];
        const RunResult &jit = *d.res[3 * i + 2];

        double cpyRate = cpy.instructions
                             ? double(cpy.work) / cpy.instructions
                             : 0;
        double nojitRate = nojit.instructions
                               ? double(nojit.work) / nojit.instructions
                               : 0;
        uint64_t beCpy =
            xlayer::breakEvenInstructions(jit.warmupCurve, cpyRate);
        uint64_t beNojit =
            xlayer::breakEvenInstructions(jit.warmupCurve, nojitRate);
        double speedup =
            jit.seconds > 0 ? cpy.seconds / jit.seconds : 0;

        auto fmt = [](uint64_t v) {
            return v == UINT64_MAX ? std::string("never(window)")
                                   : formatCount(v);
        };
        std::printf("%-20s %14s %16s %11.1fx\n", name.c_str(),
                    fmt(beCpy).c_str(), fmt(beNojit).c_str(), speedup);
    }
    printRule(70);
    std::printf("(break-even: earliest point where cumulative bytecodes "
                "on the JIT VM match the baseline's rate)\n");
}

// ---- Figure 6: IR nodes compiled, 95% hotness, execution rate

std::vector<RunOptions>
fig6Runs(const Names &names, const Results &)
{
    std::vector<RunOptions> runs = fig2Runs(names, {});
    for (RunOptions &o : runs)
        o.irAnnotations = true;
    return runs;
}

void
fig6View(const SweepData &d)
{
    std::printf("Figure 6: JIT IR node statistics\n");
    std::printf("%-20s %12s %18s %18s\n", "Benchmark", "(a) compiled",
                "(b) %% for 95%% exec", "(c) exec/Minstr");
    printRule(74);

    for (size_t i = 0; i < d.names.size(); ++i) {
        const std::string &name = d.names[i];
        const RunResult &r = *d.res[i];

        // (b): sort node executions descending; count nodes covering 95%.
        std::vector<uint64_t> execs = r.irExecCounts;
        std::sort(execs.begin(), execs.end(),
                  std::greater<uint64_t>());
        uint64_t total = 0;
        for (uint64_t e : execs)
            total += e;
        double pctFor95 = 0;
        if (total > 0 && r.irNodesCompiled > 0) {
            uint64_t acc = 0;
            uint32_t used = 0;
            for (uint64_t e : execs) {
                acc += e;
                ++used;
                if (double(acc) >= 0.95 * double(total))
                    break;
            }
            pctFor95 = 100.0 * used / r.irNodesCompiled;
        }
        double perM = r.instructions
                          ? 1e6 * double(total) / r.instructions
                          : 0;
        std::printf("%-20s %12s %17.1f%% %18s\n", name.c_str(),
                    formatCount(r.irNodesCompiled).c_str(), pctFor95,
                    formatCount(uint64_t(perM)).c_str());
    }
    printRule(74);
}

// ---- Figure 7 (fig6 sweep): IR category mix

/** Figure 7's column order. */
const jit::IrCategory kFig7Order[] = {
    jit::IrCategory::MemOp, jit::IrCategory::Guard,
    jit::IrCategory::CallOverhead, jit::IrCategory::Ctrl,
    jit::IrCategory::Int, jit::IrCategory::New, jit::IrCategory::Float,
    jit::IrCategory::Str, jit::IrCategory::Ptr};

void
fig7Row(const char *label,
        const std::array<double, jit::kNumIrCategories> &weight,
        double total)
{
    std::printf("%-20s", label);
    for (jit::IrCategory c : kFig7Order)
        std::printf(" %5.1f%%", 100.0 * weight[uint32_t(c)] / total);
    std::printf("\n");
}

void
fig7View(const SweepData &d)
{
    std::printf("Figure 7: IR category breakdown per benchmark "
                "(%% of dynamic IR executions, weighted by lowered "
                "instructions)\n");
    std::printf("%-20s %6s %6s %6s %6s %6s %6s %6s %6s %6s\n",
                "Benchmark", "memop", "guard", "call", "ctrl", "int",
                "new", "float", "str", "ptr");
    printRule(86);

    std::array<double, jit::kNumIrCategories> grand{};
    double grandTotal = 0;

    for (size_t n = 0; n < d.names.size(); ++n) {
        const std::string &name = d.names[n];
        const RunResult &r = *d.res[n];

        std::array<double, jit::kNumIrCategories> weight{};
        double total = 0;
        for (size_t i = 0; i < r.irNodeMeta.size(); ++i) {
            double w = double(r.irExecCounts[i]) *
                       jit::loweredInstCount(r.irNodeMeta[i].op);
            weight[uint32_t(jit::irCategory(r.irNodeMeta[i].op))] += w;
            total += w;
        }
        if (total <= 0) {
            std::printf("%-20s (no JIT execution)\n", name.c_str());
            continue;
        }
        fig7Row(name.c_str(), weight, total);
        for (uint32_t c = 0; c < jit::kNumIrCategories; ++c)
            grand[c] += weight[c];
        grandTotal += total;
    }
    printRule(86);
    if (grandTotal > 0)
        fig7Row("ALL (weighted)", grand, grandTotal);
}

// ---- Figure 8 (fig6 sweep): IR node-type frequencies

/** Dynamic executions per IR node type, summed over the sweep. */
std::map<jit::IrOp, uint64_t>
irOpFrequencies(const SweepData &d)
{
    std::map<jit::IrOp, uint64_t> freq;
    for (const RunResult *r : d.res) {
        for (size_t i = 0; i < r->irNodeMeta.size(); ++i)
            freq[r->irNodeMeta[i].op] += r->irExecCounts[i];
    }
    return freq;
}

void
fig8View(const SweepData &d)
{
    std::map<jit::IrOp, uint64_t> freq = irOpFrequencies(d);
    uint64_t total = 0;
    for (const auto &[op, count] : freq)
        total += count;

    std::vector<std::pair<jit::IrOp, uint64_t>> sorted(freq.begin(),
                                                       freq.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });

    std::printf("Figure 8: dynamic IR node-type frequency histogram "
                "(all PyPy-suite workloads)\n");
    std::printf("%-22s %10s  %s\n", "IR node type", "share", "");
    printRule(70);
    int below1pct = 0;
    for (const auto &[op, count] : sorted) {
        double share = total ? double(count) / total : 0;
        if (share < 0.01)
            ++below1pct;
        std::printf("%-22s %9.2f%%  %s\n", jit::irOpName(op),
                    100.0 * share, bar(share, 40).c_str());
    }
    printRule(70);
    std::printf("%d of %zu node types are below 1%% of executions\n",
                below1pct, sorted.size());
}

// ---- Figure 9 (fig6 sweep): instructions per IR node type

void
fig9View(const SweepData &d)
{
    // Report only node types that occur.
    std::vector<std::pair<jit::IrOp, uint32_t>> rows;
    for (const auto &[op, count] : irOpFrequencies(d)) {
        if (count > 0)
            rows.emplace_back(op, jit::loweredInstCount(op));
    }
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });

    std::printf("Figure 9: machine instructions per IR node type "
                "(lowering expansions observed in suite traces)\n");
    std::printf("%-22s %8s  %s\n", "IR node type", "insts", "");
    printRule(70);
    for (const auto &[op, n] : rows) {
        std::printf("%-22s %8u  %s\n", jit::irOpName(op), n,
                    std::string(n, '#').c_str());
    }
    printRule(70);
}

// ---- Optimizer ablation (DESIGN.md decision 5): cycles and GCs per stage

const char *const kAblationNames[] = {"chaos", "float", "crypto_pyaes",
                                      "richards", "spectral_norm"};
constexpr size_t kCols = std::size(kAblationNames);

struct OptVariant
{
    const char *label;
    void (*tweak)(RunOptions &);
};
const OptVariant kOptVariants[] = {
    {"full optimizer", [](RunOptions &) {}},
    {"no virtualize", [](RunOptions &o) { o.optVirtualize = false; }},
    {"no heap cache", [](RunOptions &o) { o.optHeapCache = false; }},
    {"no guard elision", [](RunOptions &o) { o.optElideGuards = false; }},
    {"no const folding",
     [](RunOptions &o) { o.optFoldConstants = false; }},
};

std::vector<RunOptions>
ablationRuns(const Names &, const Results &)
{
    std::vector<RunOptions> runs;
    for (const OptVariant &v : kOptVariants) {
        for (const char *n : kAblationNames) {
            RunOptions o = baseOptions(n, VmKind::PyPyJit);
            v.tweak(o);
            runs.push_back(o);
        }
    }
    return runs;
}

void
ablationView(const SweepData &d)
{
    std::printf("Optimizer ablation (cycles normalized to the full "
                "optimizer; minor GCs in JIT runs)\n");
    std::printf("%-18s", "Variant");
    for (const char *n : kAblationNames)
        std::printf(" %15s", n);
    std::printf("\n");
    printRule(18 + 16 * 5);

    // Row 0 ("full optimizer") is the normalization baseline.
    size_t vi = 0;
    for (const OptVariant &v : kOptVariants) {
        std::printf("%-18s", v.label);
        for (size_t i = 0; i < kCols; ++i) {
            const RunResult &r = *d.res[vi * kCols + i];
            double base = d.res[i]->cycles;
            std::printf("   %5.2fx gc=%-4llu",
                        base > 0 ? r.cycles / base : 0.0,
                        (unsigned long long)r.gcMinor);
        }
        std::printf("\n");
        ++vi;
    }
    printRule(18 + 16 * 5);
}

// ---- Deopt-storm containment (DESIGN.md §10) on guard_churn

struct StormVariant
{
    const char *label;
    uint32_t stormThreshold;
    uint32_t cooldown;
};
const StormVariant kStormVariants[] = {
    {"containment off", 0, 0},
    {"threshold 50", 50, 2000},
    {"threshold 200", 200, 2000},
    {"threshold 600 (default)", 600, 4000},
};

std::vector<RunOptions>
stormRuns(const Names &, const Results &)
{
    std::vector<RunOptions> runs;
    for (const StormVariant &v : kStormVariants) {
        RunOptions o = baseOptions("guard_churn", VmKind::PyPyJit);
        o.stormThreshold = v.stormThreshold;
        o.blacklistCooldown = v.cooldown;
        runs.push_back(o);
    }
    return runs;
}

void
stormView(const SweepData &d)
{
    std::printf("Deopt-storm containment on guard_churn (cycles "
                "normalized to containment off)\n");
    std::printf("%-24s %8s %10s %12s %8s\n", "Variant", "cycles",
                "deopts", "blacklisted", "rearmed");
    printRule(66);
    double base = d.res[0]->cycles;
    for (size_t i = 0; i < std::size(kStormVariants); ++i) {
        const RunResult &r = *d.res[i];
        std::printf("%-24s %7.3fx %10llu %12llu %8llu\n",
                    kStormVariants[i].label,
                    base > 0 ? r.cycles / base : 0.0,
                    (unsigned long long)r.deopts,
                    (unsigned long long)r.tracesBlacklisted,
                    (unsigned long long)r.tracesRearmed);
    }
    printRule(66);
}

} // namespace

const std::vector<Sweep> &
paperSweeps()
{
    static const std::vector<Sweep> sweeps = {
        {"table1", tableOneWorkloads, table1Runs, nullptr, nullptr,
         {table1View}},
        {"table2", clbgWorkloads<false>, table2Runs, nullptr, table2Native,
         {table2View}},
        {"fig2", figureWorkloads, fig2Runs, nullptr, nullptr,
         {fig2View, table3View, table4View}},
        // The best and worst JIT speedups of Table I plus a GC-heavy
        // case; the probes (Figure 2's runs) only size the bins.
        {"fig3", [] { return Names{"spectral_norm", "django", "float"}; },
         fig3Runs,
         [](const Names &names) { return fig2Runs(names, {}); }, nullptr,
         {fig3View}},
        {"fig4", clbgWorkloads<true>, fig4Runs, nullptr, nullptr, {fig4View}},
        {"fig5", figureWorkloads, fig5Runs, nullptr, nullptr, {fig5View}},
        {"fig6", figureWorkloads, fig6Runs, nullptr, nullptr,
         {fig6View, fig7View, fig8View, fig9View}},
        {"ablation_optimizer", nullptr, ablationRuns, nullptr, nullptr,
         {ablationView}},
        {"robustness_storm", nullptr, stormRuns, nullptr, nullptr,
         {stormView}},
    };
    return sweeps;
}

} // namespace bench
} // namespace xlvm
