/**
 * @file
 * Trace backend: "assembles" optimized traces.
 *
 * Each IR node lowers to a fixed-shape sequence of synthetic
 * instructions; the per-op expansion lengths are the model behind
 * Figure 9 (x86 instructions per IR node type — call_assembler > 30,
 * other calls > 15, most nodes 1–2). The backend allocates a region in
 * the JIT code arena, precomputes per-op code offsets, assigns global IR
 * node ids for the IR-node profiler, and initializes guard bookkeeping.
 *
 * The trace *executor* (vm layer) replays these expansions with live
 * memory addresses and branch outcomes; it consumes the same tables, so
 * static (Figure 9) and dynamic (Figures 6–8) statistics agree by
 * construction.
 */

#ifndef XLVM_JIT_BACKEND_H
#define XLVM_JIT_BACKEND_H

#include <vector>

#include "jit/ir.h"
#include "jit/lower.h"
#include "sim/code_space.h"

namespace xlvm {
namespace jit {

/** Synthetic instructions in the lowering of one IR op. */
uint32_t loweredInstCount(IrOp op);

/** Metadata for one compiled (countable) IR node. */
struct IrNodeMeta
{
    IrOp op = IrOp::Label;
    uint32_t traceId = 0;
};

/** Per-tier compile/residency accounting (metrics jit_tiers section). */
struct TierStats
{
    uint64_t tier1Compiles = 0;
    uint64_t tier2Compiles = 0; ///< promotions recompile at tier 2 too
    uint64_t promotions = 0;
    /** Live code bytes per tier. The arena is monotonic, so promotion
     *  moves a trace's footprint to tier 2 and retires the old region. */
    uint64_t tier1CodeBytes = 0;
    uint64_t tier2CodeBytes = 0;
    uint64_t tier1RetiredBytes = 0;
    /** Modeled compile-cost instructions charged per tier. */
    uint64_t tier1CompileInsts = 0;
    uint64_t tier2CompileInsts = 0;
};

class Backend
{
  public:
    explicit Backend(sim::CodeSpace &cs, bool fuse_micro_ops = true)
        : codeSpace(cs), fuseMicroOps(fuse_micro_ops)
    {
    }

    /**
     * Assemble @p trace at the optimizing tier: assigns codePc /
     * codeInsts / opPc offsets / irNodeBase, registers node metadata,
     * sizes guardStates, and pre-lowers the trace into its micro-op
     * program (jit/lower.h).
     */
    void compile(Trace &trace);

    /**
     * Assemble @p trace at the baseline tier (tier 1): the trace is the
     * raw recording, lowered through the exact same pipeline — the only
     * difference is bookkeeping (trace.tier, per-tier byte accounting).
     */
    void compileBaseline(Trace &trace);

    /**
     * Promote @p trace to the optimizing tier: move @p optimized's IR
     * content into the registered trace object (preserving its id,
     * anchor and hotness so every registry/bridge reference stays
     * valid) and recompile. The old tier-1 code region is abandoned
     * (the arena is monotonic) and counted as retired; guardStates are
     * re-sized by the recompile, which detaches any bridges attached to
     * the tier-1 guard indices — dependent code invalidation.
     */
    void promote(Trace &trace, Trace &&optimized);

    /** Charge modeled compile-cost instructions to @p tier's account. */
    void addCompileCost(uint8_t tier, uint64_t insts);

    const TierStats &tierStats() const { return tiers; }

    /** Per-op code offsets (parallel to trace.ops), for the executor. */
    const std::vector<uint32_t> &opOffsets(uint32_t trace_id) const;

    /** Per-op global IR-node id (-1 for labels/debug markers). */
    const std::vector<int32_t> &opNodeIds(uint32_t trace_id) const;

    /** The pre-lowered micro-op program the executor dispatches over.
     *  Mutable: the executor patches handler pointers on first entry. */
    MicroProgram &program(uint32_t trace_id);

    /** All compiled IR nodes across all traces, indexed by global id. */
    const std::vector<IrNodeMeta> &nodeMeta() const { return nodes; }

    uint32_t totalIrNodesCompiled() const { return uint32_t(nodes.size()); }

    bool fusionEnabled() const { return fuseMicroOps; }

  private:
    void compileAtTier(Trace &trace, uint8_t tier);

    sim::CodeSpace &codeSpace;
    bool fuseMicroOps;
    TierStats tiers;
    std::vector<IrNodeMeta> nodes;
    std::vector<std::vector<uint32_t>> offsets; ///< per trace id
    std::vector<std::vector<int32_t>> nodeIds;  ///< per trace id
    std::vector<MicroProgram> programs;         ///< per trace id
};

} // namespace jit
} // namespace xlvm

#endif // XLVM_JIT_BACKEND_H
