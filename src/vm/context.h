/**
 * @file
 * VmContext: one fully wired virtual machine instance.
 *
 * Assembles the simulated core, the cross-layer annotation bus with its
 * instruments, the GC heap with phase hooks, the object space, and (for the
 * RPython flavor) the meta-tracing machinery: backend, trace registry,
 * executor. Language front ends (minipy, minirkt) run on top of this.
 */

#ifndef XLVM_VM_CONTEXT_H
#define XLVM_VM_CONTEXT_H

#include <memory>

#include "jit/backend.h"
#include "obj/space.h"
#include "rt/faults.h"
#include "vm/executor.h"
#include "vm/gchooks.h"
#include "vm/registry.h"
#include "xlayer/bus.h"
#include "xlayer/sampler.h"

namespace xlvm {
namespace vm {

struct VmConfig
{
    obj::VmFlavor flavor = obj::VmFlavor::RPython;
    obj::CostParams costs;
    sim::CoreParams core;
    gc::HeapParams heap;
    JitParams jit;
    /** Timeline bin width for the phase profiler (0 = off). */
    uint64_t phaseTimelineBin = 0;
    /** Streaming event tracer (capacityEvents == 0 keeps it off). */
    xlayer::TracerOptions tracer;
    /** Cycle-driven sampling profiler (intervalCycles == 0 = off). */
    xlayer::SamplerOptions sampler;
    /** Warmup-curve sample interval in instructions. */
    uint64_t workSampleInstrs = 100000;
    /** Instruction budget: dispatch loops stop at the next safe point. */
    uint64_t maxInstructions = 0; ///< 0 = unlimited
    /**
     * Fault-injection spec (rt::FaultEngine grammar); empty = disarmed.
     * Must be pre-validated (the driver rejects malformed specs); the
     * context constructor treats a parse failure as fatal.
     */
    std::string inject;
};

class VmContext
{
  public:
    explicit VmContext(const VmConfig &cfg = VmConfig())
        : config(cfg),
          core(cfg.core),
          bus(core, cfg.phaseTimelineBin, cfg.workSampleInstrs, cfg.tracer),
          heap(cfg.heap),
          env(core, codeSpace, heap, cfg.flavor, cfg.costs),
          gcHooks(env),
          space(env),
          backend(codeSpace, cfg.jit.fuseMicroOps),
          registry(heap),
          executor(space, registry, backend, cfg.jit),
          sampler(core, cfg.sampler)
    {
        heap.setHooks(&gcHooks);
        std::string injectErr;
        if (!faults.configure(cfg.inject, &injectErr))
            XLVM_FATAL("bad fault-injection spec: ", injectErr);
        if (bus.tracer.enabled()) {
            bus.tracer.setCounterSampler([this] {
                xlayer::TraceCounterSample s{};
                s.heapBytes = heap.youngByteCount() + heap.oldByteCount();
                s.traceCacheBytes = codeSpace.jitCodeBytes();
                return s;
            });
        }
    }

    /** True if the instruction budget has been exhausted. */
    bool
    budgetExhausted() const
    {
        return config.maxInstructions &&
               core.totalInstructions() >= config.maxInstructions;
    }

    double totalCyclesForTest() const { return core.totalCycles(); }

    VmConfig config;
    sim::Core core;
    sim::CodeSpace codeSpace;
    xlayer::AnnotationBus bus;
    gc::Heap heap;
    obj::ExecEnv env;
    GcPhaseHooks gcHooks;
    obj::ObjSpace space;
    jit::Backend backend;
    TraceRegistry registry;
    TraceExecutor executor;
    /**
     * Deterministic fault injection (per context, like the sampler, so
     * --jobs never perturbs trigger counters). Disarmed by default.
     */
    rt::FaultEngine faults;
    /** Declared last: its destructor disarms the core's sample hook. */
    xlayer::CycleSampler sampler;
};

} // namespace vm
} // namespace xlvm

#endif // XLVM_VM_CONTEXT_H
