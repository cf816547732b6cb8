/**
 * @file
 * Quickstart: run a MiniPy program on the meta-tracing JIT VM and
 * inspect what the framework did — compiled traces, phase breakdown,
 * and the final trace IR (the PyPy-Log analog).
 */

#include <cstdio>

#include "minipy/compiler.h"
#include "minipy/interp.h"
#include "vm/context.h"
#include "xlayer/phase.h"

int
main()
{
    using namespace xlvm;

    const char *program = R"PY(
def fib_iter(n):
    a = 0
    b = 1
    i = 0
    while i < n:
        t = a + b
        a = b
        b = t
        i += 1
    return a

total = 0
for k in range(400):
    total += fib_iter(20)
print(total)
)PY";

    // Configure a VM: RPython-style interpreter + meta-tracing JIT.
    vm::VmConfig cfg;
    cfg.jit.loopThreshold = 50; // trace loops after 50 iterations
    vm::VmContext ctx(cfg);

    // Compile and run.
    auto prog = minipy::compileSource(program, ctx.space);
    minipy::Interp interp(ctx, *prog);
    interp.run();

    std::printf("program output: %s", interp.output().c_str());
    std::printf("simulated time: %.6f s (%llu instructions)\n",
                ctx.core.seconds(),
                (unsigned long long)ctx.core.totalInstructions());

    std::printf("\nJIT activity: %llu loops, %llu bridges, %llu deopts, "
                "%llu trace executions\n",
                (unsigned long long)ctx.bus.count(xlayer::kLoopCompiled),
                (unsigned long long)ctx.bus.count(xlayer::kBridgeCompiled),
                (unsigned long long)ctx.bus.count(xlayer::kDeopt),
                (unsigned long long)ctx.bus.count(xlayer::kTraceEnter));

    std::printf("\nphase breakdown:\n");
    auto shares = ctx.bus.phases.phaseCycleShares();
    for (uint32_t p = 0; p < xlayer::kNumPhases; ++p) {
        if (shares[p] > 0.001) {
            std::printf("  %-10s %5.1f%%\n",
                        xlayer::phaseName(xlayer::Phase(p)),
                        100.0 * shares[p]);
        }
    }

    std::printf("\nfirst compiled trace (optimized IR):\n%s",
                ctx.registry.size()
                    ? ctx.registry.byId(0)->dump().c_str()
                    : "(none)\n");
    return 0;
}
