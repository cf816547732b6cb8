/**
 * @file
 * GC instrumentation hooks: attribute collection work to the GC phase.
 */

#ifndef XLVM_VM_GCHOOKS_H
#define XLVM_VM_GCHOOKS_H

#include "gc/heap.h"
#include "obj/execenv.h"

namespace xlvm {
namespace vm {

class GcPhaseHooks : public gc::GcHooks
{
  public:
    explicit GcPhaseHooks(obj::ExecEnv &env) : env_(env)
    {
        sitePc = env.allocSite(256);
    }

    void
    onCollectStart(bool major) override
    {
        // Sampler context: collections can interrupt trace execution
        // (safepoints), so save the interrupted context and restore it
        // when the collection ends.
        sim::Core &core = env_.core();
        savedCtx = core.profileContext();
        core.setProfileContext(
            sim::sampleCtxPack(sim::SampleCtxKind::Gc, 0, ordinal));
        sim::BlockEmitter e(core, sitePc);
        e.annot(xlayer::kPhaseEnter, uint32_t(xlayer::Phase::Gc));
        e.annot(major ? xlayer::kGcMajor : xlayer::kGcMinor, ordinal++);
    }

    void
    onCollectEnd(const gc::GcCollectionStats &stats) override
    {
        const obj::CostParams &c = env_.costs();
        double work =
            stats.major
                ? c.gcMajorFixedInsts +
                      stats.objectsScanned * c.gcPerScannedObjInsts +
                      (stats.bytesPromoted + stats.bytesFreed) *
                          c.gcMajorPerByteInsts
                : c.gcMinorFixedInsts +
                      stats.objectsScanned * c.gcPerScannedObjInsts +
                      stats.bytesPromoted * c.gcPerPromotedByteInsts;
        // Collection loop: loads (tracing pointers), stores (copying),
        // well-predicted branches (Table IV: GC has relatively high IPC).
        uint64_t n = uint64_t(work);
        for (uint64_t i = 0; i < n; i += 5) {
            sim::BlockEmitter body(env_.core(), sitePc + 64);
            // The same tight collection loop runs over and over, so the
            // predictors warm up well (Table IV: GC has relatively high
            // IPC) and the scan window stays cache-resident.
            body.load(0x30000000 + (i % 2048) * 8, 0);
            body.alu(2);
            body.store(0x38000000 + (i % 2048) * 8);
            body.branch(i + 5 < n);
        }
        sim::BlockEmitter e(env_.core(), sitePc + 128);
        e.annot(xlayer::kPhaseExit, uint32_t(xlayer::Phase::Gc));
        env_.core().setProfileContext(savedCtx);
    }

  private:
    obj::ExecEnv &env_;
    uint64_t sitePc = 0;
    uint32_t ordinal = 0;
    uint64_t savedCtx = 0;
};

} // namespace vm
} // namespace xlvm

#endif // XLVM_VM_GCHOOKS_H
