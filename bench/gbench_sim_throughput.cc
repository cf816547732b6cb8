/**
 * @file
 * Host-side microbenchmarks (google-benchmark): throughput of the
 * simulation substrate itself — core consumption rate, branch
 * prediction, dict probing, bignum arithmetic, and end-to-end VM
 * execution per modeled configuration. Useful for keeping the
 * regeneration benches fast as the stack evolves.
 */

#include <benchmark/benchmark.h>

#include "driver/parallel.h"
#include "driver/runner.h"
#include "rt/rbigint.h"
#include "rt/rdict.h"
#include "sim/cache.h"
#include "sim/core.h"
#include "sim/emitter.h"

namespace {

using namespace xlvm;

void
BM_CoreConsume(benchmark::State &state)
{
    sim::Core core;
    uint64_t n = 0;
    for (auto _ : state) {
        sim::BlockEmitter e(core, 0x400000);
        e.alu(8);
        e.loadPtr(&core, 1);
        e.branch((n++ & 3) == 0);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 10);
}
BENCHMARK(BM_CoreConsume);

void
BM_CacheAccess(benchmark::State &state)
{
    // range(0)==0: repeated hits to one line (MRU fast path);
    // range(0)==1: stride walk over 4x the cache capacity (miss-heavy).
    sim::CacheParams cfg; // defaults: model L1
    sim::Cache cache(cfg);
    bool strided = state.range(0) != 0;
    uint64_t span = uint64_t(cfg.sizeBytes) * 4;
    uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr));
        if (strided)
            addr = (addr + 64) % span;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(0)->Arg(1);

void
BM_DictLookup(benchmark::State &state)
{
    struct Traits
    {
        static bool equal(int a, int b) { return a == b; }
    };
    rt::ROrderedDict<int, int, Traits> d;
    for (int i = 0; i < 1024; ++i)
        d.set(i, uint64_t(i) * 0x9e3779b97f4a7c15ull, i);
    int k = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            d.get(k & 1023, uint64_t(k & 1023) * 0x9e3779b97f4a7c15ull));
        ++k;
    }
}
BENCHMARK(BM_DictLookup);

void
BM_BigIntMul(benchmark::State &state)
{
    rt::RBigInt a = rt::RBigInt::pow(rt::RBigInt::fromInt64(7),
                                     uint64_t(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(rt::RBigInt::mul(a, a));
}
BENCHMARK(BM_BigIntMul)->Arg(32)->Arg(256);

void
BM_VmEndToEnd(benchmark::State &state)
{
    driver::VmKind kinds[] = {driver::VmKind::CPythonLike,
                              driver::VmKind::PyPyNoJit,
                              driver::VmKind::PyPyJit};
    driver::VmKind vm = kinds[state.range(0)];
    for (auto _ : state) {
        driver::RunOptions o;
        o.workload = "crypto_pyaes";
        o.scale = 120;
        o.vm = vm;
        o.loopThreshold = 60;
        driver::RunResult r = driver::runWorkload(o);
        benchmark::DoNotOptimize(r.instructions);
    }
}
BENCHMARK(BM_VmEndToEnd)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

void
BM_ParallelHarness(benchmark::State &state)
{
    // A small sweep (3 VMs x 2 workloads) through the thread-pool
    // harness at Arg(0) jobs; Arg(0)==1 is the sequential baseline the
    // wall-clock speedup is measured against.
    unsigned jobs = unsigned(state.range(0));
    std::vector<driver::RunOptions> runs;
    for (const char *w : {"crypto_pyaes", "chaos"}) {
        for (driver::VmKind vm : {driver::VmKind::CPythonLike,
                                  driver::VmKind::PyPyNoJit,
                                  driver::VmKind::PyPyJit}) {
            driver::RunOptions o;
            o.workload = w;
            o.scale = 120;
            o.vm = vm;
            o.loopThreshold = 60;
            runs.push_back(o);
        }
    }
    for (auto _ : state) {
        std::vector<driver::RunResult> res =
            driver::runWorkloadsParallel(runs, jobs);
        benchmark::DoNotOptimize(res[0].instructions);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(runs.size()));
}
BENCHMARK(BM_ParallelHarness)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

} // namespace

BENCHMARK_MAIN();
