/**
 * @file
 * Instruction-stream emission helper.
 *
 * A BlockEmitter walks a pre-allocated code region and feeds instruction
 * records into the core. Re-executing the same handler re-emits the same
 * PCs, so predictors and the I-cache see repeated code exactly as
 * hardware would.
 */

#ifndef XLVM_SIM_EMITTER_H
#define XLVM_SIM_EMITTER_H

#include <cstdint>

#include "sim/core.h"
#include "sim/inst.h"

namespace xlvm {
namespace sim {

class BlockEmitter
{
  public:
    BlockEmitter(Core &core, uint64_t base_pc)
        : core_(core), pc_(base_pc)
    {
    }

    uint64_t pc() const { return pc_; }

    void
    alu(uint32_t n = 1, uint8_t extra_lat = 0)
    {
        straight(InstClass::IntAlu, n, extra_lat);
    }

    void mul() { emit(InstClass::IntMul); }
    void div() { emit(InstClass::IntDiv); }
    void fpAlu(uint32_t n = 1) { straight(InstClass::FpAlu, n); }
    void fpMul() { emit(InstClass::FpMul); }
    void fpDiv() { emit(InstClass::FpDiv); }

    void
    load(uint64_t addr, uint8_t extra_lat = 0)
    {
        Inst i;
        i.cls = InstClass::Load;
        i.pc = step();
        i.memAddr = addr;
        i.extraLat = extra_lat;
        core_.consume(i);
    }

    /**
     * Load from an arbitrary host pointer (the usual case). The pointer
     * is translated to a deterministic simulated address so cache
     * behaviour does not depend on where the host allocator placed the
     * object (see sim::DataAddrSpace).
     */
    void
    loadPtr(const void *p, uint8_t extra_lat = 0)
    {
        load(core_.dataAddr(p), extra_lat);
    }

    /** Load of a field at @p off bytes into the object behind @p p. */
    void
    loadPtrOff(const void *p, uint64_t off, uint8_t extra_lat = 0)
    {
        load(core_.dataAddr(p) + off, extra_lat);
    }

    void
    store(uint64_t addr)
    {
        Inst i;
        i.cls = InstClass::Store;
        i.pc = step();
        i.memAddr = addr;
        core_.consume(i);
    }

    void storePtr(const void *p) { store(core_.dataAddr(p)); }

    /** Store to a field at @p off bytes into the object behind @p p. */
    void
    storePtrOff(const void *p, uint64_t off)
    {
        store(core_.dataAddr(p) + off);
    }

    void
    branch(bool taken)
    {
        Inst i;
        i.cls = InstClass::Branch;
        i.pc = step();
        i.taken = taken;
        core_.consume(i);
    }

    void
    jump(uint64_t target)
    {
        Inst i;
        i.cls = InstClass::Jump;
        i.pc = step();
        i.target = target;
        core_.consume(i);
    }

    void
    indirectJump(uint64_t target)
    {
        Inst i;
        i.cls = InstClass::IndirectJump;
        i.pc = step();
        i.target = target;
        core_.consume(i);
    }

    void
    call(uint64_t target)
    {
        Inst i;
        i.cls = InstClass::Call;
        i.pc = step();
        i.target = target;
        core_.consume(i);
    }

    void
    indirectCall(uint64_t target)
    {
        Inst i;
        i.cls = InstClass::IndirectCall;
        i.pc = step();
        i.target = target;
        core_.consume(i);
    }

    /** @param return_pc actual return address (RAS correctness check). */
    void
    ret(uint64_t return_pc)
    {
        Inst i;
        i.cls = InstClass::Ret;
        i.pc = step();
        i.target = return_pc;
        core_.consume(i);
    }

    void nop() { emit(InstClass::Nop); }

    /** Emit a cross-layer annotation (the tagged-nop analog). */
    void
    annot(uint32_t tag, uint32_t payload = 0)
    {
        Inst i;
        i.cls = InstClass::Annot;
        i.pc = step();
        i.target = encodeAnnot(tag, payload);
        core_.consume(i);
    }

  private:
    /** Batched straight-line emission (amortizes per-inst call cost). */
    void
    straight(InstClass cls, uint32_t n, uint8_t extra_lat = 0)
    {
        core_.consumeStraight(cls, pc_, n, extra_lat);
        pc_ += 4ull * n;
    }

    uint64_t
    step()
    {
        uint64_t p = pc_;
        pc_ += 4;
        return p;
    }

    void
    emit(InstClass cls, uint8_t extra_lat = 0)
    {
        Inst i;
        i.cls = cls;
        i.pc = step();
        i.extraLat = extra_lat;
        core_.consume(i);
    }

    Core &core_;
    uint64_t pc_;
};

} // namespace sim
} // namespace xlvm

#endif // XLVM_SIM_EMITTER_H
