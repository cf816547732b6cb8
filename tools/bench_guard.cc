/**
 * @file
 * xlvm-bench-guard — CI bench-smoke performance guard.
 *
 * Checks properties of freshly generated metrics reports against a
 * committed baseline (ci/bench_smoke_baseline.json):
 *
 *  1. Modeled-cost regression: per matched run (workload + vm +
 *     tier mode), the fresh totals/cycles_fp may not exceed the
 *     baseline by more than --max-regression (default 10%). This is a
 *     coarse tripwire for the reduced smoke sweep; the golden gate pins
 *     exact values for the full set.
 *
 *  2. Tiering health (schema v4): --min-promotions asserts the multi
 *     mode smoke run actually promotes traces, and --max-tier1-share
 *     bounds the fraction of modeled compile work spent at tier 1
 *     (tier1_compile_insts / all compile insts). Both gates pass
 *     trivially when the report has no jit_tiers activity, so a
 *     default-mode-only invocation is unaffected.
 *
 *  3. Microbenchmark gate (--gbench): reads a gbench_trace_exec
 *     --benchmark_format=json output and checks the BM_SimStep_*
 *     family. Every variant of a shape must report the same
 *     modeled_cpi within a small tolerance (the armed sampler must not
 *     move modeled cycles per op — the microbench cross-check of the
 *     golden gate's bit-exactness contract), and with
 *     --max-sampler-overhead the best per-shape cpu_time overhead of
 *     the Prof variant over the Plain one must stay under the cap (a
 *     ratio within one process, so host noise mostly cancels).
 *
 * Accepts any number of fresh reports: the LAST positional is always
 * the baseline, every earlier one is a fresh report (so CI can feed the
 * default-mode and multi-mode sweeps through one invocation). --update
 * rewrites the baseline as the merged run list of all fresh reports.
 *
 * Exit codes: 0 ok (or --update rewrote the baseline), 1 guard failed,
 * 2 usage or I/O error.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "report/golden.h"
#include "report/json.h"

namespace {

using xlvm::report::Json;

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <fresh.json>... <baseline.json> [--max-regression X]\n"
        "          [--min-promotions N] [--max-tier1-share X]\n"
        "          [--gbench FILE] [--max-sampler-overhead X] [--update]\n"
        "\n"
        "  The last positional is the baseline; all earlier ones are\n"
        "  fresh reports (their runs are checked, and merged, in order).\n"
        "\n"
        "  --gbench FILE        gbench_trace_exec JSON output to check\n"
        "                       (BM_SimStep_* modeled_cpi agreement)\n"
        "  --max-sampler-overhead X  maximum best-shape relative cpu_time\n"
        "                       overhead of BM_SimStep_Prof over\n"
        "                       BM_SimStep_Plain in --gbench\n"
        "                       (default: no gate)\n"
        "  --max-regression X   maximum allowed relative increase of a\n"
        "                       run's totals/cycles_fp over the baseline\n"
        "                       (default 0.10)\n"
        "  --min-promotions N   minimum total jit_tiers/promotions across\n"
        "                       all fresh runs (default 0 = no gate)\n"
        "  --max-tier1-share X  maximum tier1_compile_insts share of all\n"
        "                       modeled compile insts (default: no gate;\n"
        "                       passes when no compile activity at all)\n"
        "  --update             rewrite the baseline from the merged\n"
        "                       fresh reports and exit 0\n",
        argv0);
}

const Json *
runMetric(const Json &run, const char *section, const char *name)
{
    const Json *metrics = run.get("metrics");
    if (!metrics)
        return nullptr;
    const Json *sec = metrics->get(section);
    return sec ? sec->get(name) : nullptr;
}

/**
 * Run identity for baseline matching. Includes the tier mode so the
 * same workload smoked under the default and multi policies keeps two
 * distinct baseline entries. Pre-v4 reports have no config/tier_mode;
 * they match as the default tier-2 policy.
 */
std::string
runKey(const Json &run)
{
    const Json *w = run.get("workload");
    const Json *vm = run.get("vm");
    static const char *kModes[] = {"off", "tier1", "tier2", "multi"};
    const Json *tier = runMetric(run, "config", "tier_mode");
    uint64_t t = tier ? tier->asUInt() : 2;
    std::string mode = t < 4 ? kModes[t] : std::to_string(t);
    return (w ? w->asString() : "?") + "|" + (vm ? vm->asString() : "?") +
           "|" + mode;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace xlvm::report;

    std::vector<std::string> paths; // fresh..., baseline last
    double maxRegression = 0.10;
    uint64_t minPromotions = 0;
    double maxTier1Share = -1.0; // < 0 = gate off
    std::string gbenchPath;
    double maxSamplerOverhead = -1.0; // < 0 = gate off
    bool update = false;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--update") == 0) {
            update = true;
        } else if (std::strcmp(a, "--gbench") == 0 && i + 1 < argc) {
            gbenchPath = argv[++i];
        } else if (std::strncmp(a, "--gbench=", 9) == 0) {
            gbenchPath = a + 9;
        } else if (std::strcmp(a, "--max-sampler-overhead") == 0 &&
                   i + 1 < argc) {
            maxSamplerOverhead = std::strtod(argv[++i], nullptr);
        } else if (std::strncmp(a, "--max-sampler-overhead=", 23) == 0) {
            maxSamplerOverhead = std::strtod(a + 23, nullptr);
        } else if (std::strcmp(a, "--max-regression") == 0 &&
                   i + 1 < argc) {
            maxRegression = std::strtod(argv[++i], nullptr);
        } else if (std::strncmp(a, "--max-regression=", 17) == 0) {
            maxRegression = std::strtod(a + 17, nullptr);
        } else if (std::strcmp(a, "--min-promotions") == 0 &&
                   i + 1 < argc) {
            minPromotions = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strncmp(a, "--min-promotions=", 17) == 0) {
            minPromotions = std::strtoull(a + 17, nullptr, 10);
        } else if (std::strcmp(a, "--max-tier1-share") == 0 &&
                   i + 1 < argc) {
            maxTier1Share = std::strtod(argv[++i], nullptr);
        } else if (std::strncmp(a, "--max-tier1-share=", 18) == 0) {
            maxTier1Share = std::strtod(a + 18, nullptr);
        } else if (std::strcmp(a, "-h") == 0 ||
                   std::strcmp(a, "--help") == 0) {
            usage(argv[0]);
            return 0;
        } else if (a[0] == '-') {
            std::fprintf(stderr, "%s: unknown option %s\n", argv[0], a);
            usage(argv[0]);
            return 2;
        } else {
            paths.push_back(a);
        }
    }
    if (paths.size() < 2) {
        usage(argv[0]);
        return 2;
    }
    std::string basePath = paths.back();
    paths.pop_back();

    std::string err;
    std::vector<Json> freshDocs;
    std::vector<const Json *> freshRuns; // flattened across all docs
    for (const std::string &p : paths) {
        Json doc;
        if (!loadReport(p, &doc, &err)) {
            std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
            return 2;
        }
        const Json *runs = doc.get("runs");
        if (!runs || !runs->isArray() || runs->size() == 0) {
            std::fprintf(stderr, "%s: %s has no runs\n", argv[0],
                         p.c_str());
            return 2;
        }
        freshDocs.push_back(std::move(doc));
    }
    for (const Json &doc : freshDocs)
        for (const Json &run : doc.get("runs")->items())
            freshRuns.push_back(&run);

    if (update) {
        // Merge: header of the first fresh doc, runs of all of them.
        Json merged = Json::object();
        for (const auto &kv : freshDocs.front().members()) {
            if (kv.first != "runs")
                merged.set(kv.first, kv.second);
        }
        Json runs = Json::array();
        for (const Json *run : freshRuns)
            runs.push(*run);
        merged.set("runs", std::move(runs));

        std::ofstream f(basePath, std::ios::binary | std::ios::trunc);
        if (!f) {
            std::fprintf(stderr, "%s: cannot write %s\n", argv[0],
                         basePath.c_str());
            return 2;
        }
        std::string payload = merged.dump(2) + "\n";
        f.write(payload.data(), std::streamsize(payload.size()));
        f.flush();
        if (!f) {
            std::fprintf(stderr, "%s: write failed for %s\n", argv[0],
                         basePath.c_str());
            return 2;
        }
        std::printf("updated %s from %zu fresh report(s), %zu run(s)\n",
                    basePath.c_str(), paths.size(), freshRuns.size());
        return 0;
    }

    Json base;
    if (!loadReport(basePath, &base, &err)) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        return 2;
    }
    const Json *baseRuns = base.get("runs");
    if (!baseRuns || !baseRuns->isArray()) {
        std::fprintf(stderr, "%s: %s has no runs\n", argv[0],
                     basePath.c_str());
        return 2;
    }

    int fail = 0;

    // 1. Tiering health: promotions floor + tier-1 compile-work cap.
    uint64_t promotions = 0, t1Insts = 0, t2Insts = 0;
    for (const Json *run : freshRuns) {
        const Json *p = runMetric(*run, "jit_tiers", "promotions");
        const Json *a = runMetric(*run, "jit_tiers", "tier1_compile_insts");
        const Json *b = runMetric(*run, "jit_tiers", "tier2_compile_insts");
        promotions += p ? p->asUInt() : 0;
        t1Insts += a ? a->asUInt() : 0;
        t2Insts += b ? b->asUInt() : 0;
    }
    if (minPromotions > 0) {
        std::printf("jit_tiers promotions: %llu (floor %llu)\n",
                    (unsigned long long)promotions,
                    (unsigned long long)minPromotions);
        if (promotions < minPromotions) {
            std::fprintf(stderr,
                         "FAIL: %llu promotion(s) across fresh runs, "
                         "floor is %llu — the multi-tier smoke run is "
                         "not promoting\n",
                         (unsigned long long)promotions,
                         (unsigned long long)minPromotions);
            fail = 1;
        }
    }
    if (maxTier1Share >= 0.0 && t1Insts + t2Insts > 0) {
        double share = double(t1Insts) / double(t1Insts + t2Insts);
        std::printf("tier-1 compile-insts share: %.4f "
                    "(%llu / %llu, cap %.2f)\n",
                    share, (unsigned long long)t1Insts,
                    (unsigned long long)(t1Insts + t2Insts),
                    maxTier1Share);
        if (share > maxTier1Share) {
            std::fprintf(stderr,
                         "FAIL: tier-1 compile share %.4f above cap "
                         "%.2f — baseline compiles are eating the "
                         "modeled compile budget\n",
                         share, maxTier1Share);
            fail = 1;
        }
    }

    // 2. Per-run modeled-cost regression vs baseline.
    for (const Json *run : freshRuns) {
        std::string key = runKey(*run);
        const Json *match = nullptr;
        for (const Json &b : baseRuns->items()) {
            if (runKey(b) == key) {
                match = &b;
                break;
            }
        }
        if (!match) {
            std::fprintf(stderr,
                         "FAIL: run %s missing from baseline %s "
                         "(rerun with --update?)\n",
                         key.c_str(), basePath.c_str());
            fail = 1;
            continue;
        }
        const Json *fc = runMetric(*run, "totals", "cycles_fp");
        const Json *bc = runMetric(*match, "totals", "cycles_fp");
        if (!fc || !bc || bc->asUInt() == 0) {
            std::fprintf(stderr, "FAIL: %s: missing totals/cycles_fp\n",
                         key.c_str());
            fail = 1;
            continue;
        }
        double rel = double(fc->asUInt()) / double(bc->asUInt()) - 1.0;
        const char *verdict = rel > maxRegression ? "FAIL" : "ok";
        std::printf("%s %s: cycles_fp %llu vs baseline %llu (%+.2f%%)\n",
                    verdict, key.c_str(),
                    (unsigned long long)fc->asUInt(),
                    (unsigned long long)bc->asUInt(), rel * 100.0);
        if (rel > maxRegression)
            fail = 1;
    }

    // 3. gbench_trace_exec microbenchmark gate: modeled_cpi agreement
    // across the variants of each shape, plus the armed-sampler
    // overhead (a within-process ratio, so host noise mostly cancels).
    if (!gbenchPath.empty()) {
        std::ifstream gf(gbenchPath, std::ios::binary);
        if (!gf) {
            std::fprintf(stderr, "%s: cannot read %s\n", argv[0],
                         gbenchPath.c_str());
            return 2;
        }
        std::string text((std::istreambuf_iterator<char>(gf)),
                         std::istreambuf_iterator<char>());
        // google-benchmark emits bare NaN/Infinity tokens for aggregate
        // statistics of zero-mean counters (e.g. the cv of a counter
        // that is identically 0); they are not valid JSON, so neutralize
        // them outside string literals before parsing.
        bool instr = false;
        for (size_t i = 0; i < text.size(); ++i) {
            char c = text[i];
            if (instr) {
                if (c == '\\')
                    ++i;
                else if (c == '"')
                    instr = false;
                continue;
            }
            if (c == '"') {
                instr = true;
            } else if (c == 'N' && text.compare(i, 3, "NaN") == 0) {
                text.replace(i, 3, "0");
            } else if (c == 'I' && text.compare(i, 8, "Infinity") == 0) {
                text.replace(i, 8, "0");  // a leading '-' parses as -0
            }
        }
        std::string perr;
        Json gdoc = Json::parse(text, &perr);
        if (!perr.empty() || !gdoc.isObject()) {
            std::fprintf(stderr, "%s: %s: %s\n", argv[0],
                         gbenchPath.c_str(),
                         perr.empty() ? "not a JSON object" : perr.c_str());
            return 2;
        }
        struct Var
        {
            double cpu = 0.0;
            double cpi = -1.0;
        };
        // Per-iteration entries feed the gate by default; when the bench
        // ran with --benchmark_repetitions, the median aggregates are
        // preferred (and with --benchmark_report_aggregates_only they
        // are all there is).
        std::map<std::string, std::map<std::string, Var>> shapes, medians;
        const Json *bms = gdoc.get("benchmarks");
        if (bms && bms->isArray()) {
            for (const Json &bm : bms->items()) {
                bool isMedian = false;
                const Json *rt = bm.get("run_type");
                if (rt && rt->asString() == "aggregate") {
                    const Json *an = bm.get("aggregate_name");
                    if (!an || an->asString() != "median")
                        continue;
                    isMedian = true;
                }
                const Json *nm = bm.get("name");
                const Json *ct = bm.get("cpu_time");
                if (!nm || !ct)
                    continue;
                std::string name = nm->asString();
                static const char kSuf[] = "_median";
                const size_t sufLen = sizeof(kSuf) - 1;
                if (isMedian && name.size() > sufLen &&
                    name.compare(name.size() - sufLen, sufLen, kSuf) == 0)
                    name.resize(name.size() - sufLen);
                static const char kPfx[] = "BM_SimStep_";
                const size_t pfxLen = sizeof(kPfx) - 1;
                if (name.compare(0, pfxLen, kPfx) != 0)
                    continue;
                size_t slash = name.find('/', pfxLen);
                if (slash == std::string::npos)
                    continue;
                Var v;
                v.cpu = ct->asDouble();
                const Json *cpi = bm.get("modeled_cpi");
                v.cpi = cpi ? cpi->asDouble() : -1.0;
                (isMedian ? medians : shapes)[name.substr(slash)]
                    [name.substr(pfxLen, slash - pfxLen)] = v;
            }
        }
        if (!medians.empty())
            shapes = std::move(medians);
        if (shapes.empty()) {
            std::fprintf(stderr,
                         "FAIL: %s has no BM_SimStep_* entries — was "
                         "the bench filtered out?\n",
                         gbenchPath.c_str());
            fail = 1;
        }
        for (const auto &sv : shapes) {
            // modeled_cpi agreement: every variant models the same
            // instruction stream, so the sampler must not move cycles
            // per op (tolerance covers warmup-fraction jitter from
            // differing gbench iteration counts).
            double lo = 0.0, hi = 0.0;
            bool any = false;
            for (const auto &vv : sv.second) {
                if (vv.second.cpi < 0)
                    continue;
                lo = any ? std::min(lo, vv.second.cpi) : vv.second.cpi;
                hi = any ? std::max(hi, vv.second.cpi) : vv.second.cpi;
                any = true;
            }
            if (any && hi - lo > 0.005) {
                std::fprintf(stderr,
                             "FAIL: modeled_cpi drift %.6f..%.6f across "
                             "BM_SimStep_*%s variants — a variant "
                             "is changing modeled counters\n",
                             lo, hi, sv.first.c_str());
                fail = 1;
            }
        }

        // Sampler wall-clock overhead: Prof steps the same body with
        // the cycle sampler armed, so its cpu_time over the Plain
        // variant is the armed-sampler cost. Gate on the best
        // (lowest-overhead) shape — a within-process ratio, but CI
        // runners are noisy enough that the worst shape would flake.
        if (maxSamplerOverhead >= 0.0) {
            bool ovFound = false;
            double bestOv = 0.0; // can be negative: noise on fast shapes
            std::string bestOvShape;
            for (const auto &sv : shapes) {
                auto plIt = sv.second.find("Plain");
                auto pfIt = sv.second.find("Prof");
                if (plIt == sv.second.end() || pfIt == sv.second.end() ||
                    plIt->second.cpu <= 0.0)
                    continue;
                double ov = pfIt->second.cpu / plIt->second.cpu - 1.0;
                std::printf("gbench %s: sampler-on %.0f vs off %.0f cpu "
                            "-> %+.2f%% overhead\n",
                            sv.first.c_str(), pfIt->second.cpu,
                            plIt->second.cpu, ov * 100.0);
                if (!ovFound || ov < bestOv) {
                    ovFound = true;
                    bestOv = ov;
                    bestOvShape = sv.first;
                }
            }
            if (!ovFound) {
                std::fprintf(stderr,
                             "FAIL: --max-sampler-overhead given but no "
                             "shape has both Plain and Prof variants "
                             "in %s\n",
                             gbenchPath.c_str());
                fail = 1;
            } else {
                std::printf("sampler best-shape overhead: %+.2f%% on %s "
                            "(cap %.2f%%)\n",
                            bestOv * 100.0, bestOvShape.c_str(),
                            maxSamplerOverhead * 100.0);
                if (bestOv > maxSamplerOverhead) {
                    std::fprintf(stderr,
                                 "FAIL: armed-sampler overhead %+.2f%% "
                                 "above cap %.2f%%\n",
                                 bestOv * 100.0,
                                 maxSamplerOverhead * 100.0);
                    fail = 1;
                }
            }
        }
    }

    return fail;
}
