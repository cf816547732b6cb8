/**
 * @file
 * Multi-language demonstration: a MiniRkt (Scheme) program on the same
 * meta-tracing framework — the Pycket analog. Named-let tail recursion
 * compiles to the same backward-jump merge points as Python loops, so
 * the JIT traces it identically.
 */

#include <cstdio>

#include "minipy/interp.h"
#include "minirkt/compiler.h"
#include "vm/context.h"

int
main()
{
    using namespace xlvm;

    const char *program = R"RKT(
(define (ack m n)
  (if (= m 0)
      (+ n 1)
      (if (= n 0)
          (ack (- m 1) 1)
          (ack (- m 1) (ack m (- n 1))))))

(define total 0)
(let loop ((i 0))
  (if (< i 200)
      (begin
        (set! total (+ total (ack 2 3)))
        (loop (+ i 1)))
      0))
(display total)
(newline)
)RKT";

    vm::VmConfig cfg;
    cfg.jit.loopThreshold = 40;
    vm::VmContext ctx(cfg);

    auto prog = minirkt::compileRkt(program, ctx.space);
    minipy::Interp interp(ctx, *prog);
    interp.run();

    std::printf("scheme output: %s", interp.output().c_str());
    std::printf("traces compiled: %zu, trace executions: %llu\n",
                ctx.registry.size(),
                (unsigned long long)ctx.bus.count(xlayer::kTraceEnter));
    std::printf("simulated time: %.6f s\n", ctx.core.seconds());
    return 0;
}
