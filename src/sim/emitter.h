/**
 * @file
 * Instruction-stream emission helper: the synthetic target ISA.
 *
 * A BlockEmitter walks a pre-allocated code region and feeds each
 * instruction straight into the core's entry point for its class (there
 * is no intermediate instruction record). Re-executing the same handler
 * re-emits the same PCs, so predictors and the I-cache see repeated code
 * exactly as hardware would.
 *
 * annot() emits the cross-layer annotation instruction: the analog of the
 * paper's tagged x86 `nop` (see Core::annot).
 */

#ifndef XLVM_SIM_EMITTER_H
#define XLVM_SIM_EMITTER_H

#include <cstdint>

#include "sim/core.h"

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

    /** @p n integer add/sub/logic/compare/lea instructions. */
    void
    alu(uint32_t n = 1, uint8_t extra_lat = 0)
    {
        straight(n, uint64_t(extra_lat) * kCycleFp);
    }

    void mul() { core_.single(step(), kMulCostFp); }
    void div() { core_.single(step(), kDivCostFp); }
    void fpAlu(uint32_t n = 1) { straight(n, kFpAluCostFp); }
    void fpMul() { core_.single(step(), kFpMulCostFp); }
    void fpDiv() { core_.single(step(), kFpDivCostFp); }

    void
    load(uint64_t addr, uint8_t extra_lat = 0)
    {
        core_.load(step(), addr, extra_lat);
    }

    /**
     * Load from an arbitrary host pointer (the usual case). The pointer
     * is translated to a deterministic simulated address so cache
     * behaviour does not depend on where the host allocator placed the
     * object (see sim::DataAddrSpace). The pointer's static type picks
     * the route: a GC object's address comes from its header, any
     * other pointer goes through the map (Core::dataAddr).
     */
    template <typename T>
    void
    loadPtr(const T *p, uint8_t extra_lat = 0)
    {
        load(core_.dataAddr(p), extra_lat);
    }

    /** Load of a field at @p off bytes into the object behind @p p. */
    template <typename T>
    void
    loadPtrOff(const T *p, uint64_t off, uint8_t extra_lat = 0)
    {
        load(core_.dataAddr(p) + off, extra_lat);
    }

    void store(uint64_t addr) { core_.store(step(), addr); }

    template <typename T>
    void
    storePtr(const T *p)
    {
        store(core_.dataAddr(p));
    }

    /** Store to a field at @p off bytes into the object behind @p p. */
    template <typename T>
    void
    storePtrOff(const T *p, uint64_t off)
    {
        store(core_.dataAddr(p) + off);
    }

    void branch(bool taken) { core_.branch(step(), taken); }

    /** Direct jump; a direct target never affects the modeled state. */
    void jump(uint64_t /*target*/) { core_.jump(step()); }

    /** Computed jump (interpreter dispatch, jump tables). */
    void
    indirectJump(uint64_t target)
    {
        core_.indirect(step(), target, false);
    }

    /** Direct call; a direct target never affects the modeled state. */
    void call(uint64_t /*target*/) { core_.call(step()); }

    /** Computed call (vtables, function pointers). */
    void
    indirectCall(uint64_t target)
    {
        core_.indirect(step(), target, true);
    }

    /** @param return_pc actual return address (RAS correctness check). */
    void ret(uint64_t return_pc) { core_.ret(step(), return_pc); }

    void nop() { core_.single(step(), 0); }

    /** Emit a cross-layer annotation (the tagged-nop analog). */
    void
    annot(uint32_t tag, uint32_t payload = 0)
    {
        core_.annot(step(), tag, payload);
    }

  private:
    /** Batched straight-line emission (amortizes per-inst call cost). */
    void
    straight(uint32_t n, uint64_t extra_fp)
    {
        core_.consumeStraight(pc_, n, extra_fp);
        pc_ += 4ull * n;
    }

    uint64_t
    step()
    {
        uint64_t p = pc_;
        pc_ += 4;
        return p;
    }

    Core &core_;
    uint64_t pc_;
};

} // namespace sim
} // namespace xlvm

#endif // XLVM_SIM_EMITTER_H
