#include "vm/blackhole.h"

#include "jit/opt.h"
#include "xlayer/annot.h"

namespace xlvm {
namespace vm {

using jit::RtVal;
using obj::W_Object;

W_Object *
allocByTypeId(obj::ObjSpace &space, uint32_t type_id)
{
    gc::Heap &heap = space.heap();
    switch (type_id) {
      case obj::kTypeInt:
        return heap.alloc<obj::W_Int>(0);
      case obj::kTypeFloat:
        return heap.alloc<obj::W_Float>(0.0);
      case obj::kTypeBool:
        return heap.alloc<obj::W_Bool>(false);
      case obj::kTypeCell:
        return heap.alloc<obj::W_Cell>(nullptr);
      case obj::kTypeRange:
        return heap.alloc<obj::W_Range>(0, 0, 1);
      case obj::kTypeListIter:
        return heap.alloc<obj::W_ListIter>(nullptr);
      case obj::kTypeRangeIter:
        return heap.alloc<obj::W_RangeIter>(0, 0, 1);
      case obj::kTypeTupleIter:
        return heap.alloc<obj::W_TupleIter>(nullptr);
      case obj::kTypeStrIter:
        return heap.alloc<obj::W_StrIter>(nullptr);
      case obj::kTypeBoundMethod:
        return heap.alloc<obj::W_BoundMethod>(nullptr, nullptr);
      case obj::kTypeInstance:
        return heap.alloc<obj::W_Instance>(nullptr, nullptr);
      case obj::kTypePair:
        return heap.alloc<obj::W_Pair>(nullptr, nullptr);
      default:
        XLVM_PANIC("cannot rebuild virtual of type ",
                   obj::typeName(type_id));
    }
}

namespace {

class Materializer
{
  public:
    /** @p memo is the caller's buffer, reset here: virtual index ->
     *  its materialized object, null until built. */
    Materializer(obj::ObjSpace &space, const jit::Trace &trace,
                 const std::vector<RtVal> &regs,
                 std::vector<W_Object *> &memo)
        : space_(space), trace_(trace), regs_(regs), memo_(memo)
    {
        memo_.assign(trace.virtuals.size(), nullptr);
    }

    W_Object *
    resolveRef(int32_t ref)
    {
        if (ref == jit::kNoArg)
            return space_.none();
        if (jit::isVirtualRef(ref))
            return materializeVirtual(jit::virtualIndex(ref));
        if (jit::isConstRef(ref)) {
            const RtVal &v = trace_.constAt(ref);
            XLVM_ASSERT(v.kind == RtVal::Kind::Ref, "non-ref const slot");
            return static_cast<W_Object *>(v.r);
        }
        const RtVal &v = regs_[ref];
        switch (v.kind) {
          case RtVal::Kind::Ref:
            return static_cast<W_Object *>(v.r);
          case RtVal::Kind::Int:
            return space_.newInt(v.i);
          case RtVal::Kind::Float:
            return space_.newFloat(v.f);
        }
        return space_.none();
    }

    RtVal
    resolveVal(int32_t ref)
    {
        if (ref == jit::kNoArg)
            return RtVal::fromRef(nullptr);
        if (jit::isVirtualRef(ref))
            return RtVal::fromRef(
                materializeVirtual(jit::virtualIndex(ref)));
        if (jit::isConstRef(ref))
            return trace_.constAt(ref);
        return regs_[ref];
    }

    W_Object *
    materializeVirtual(int32_t vidx)
    {
        if (W_Object *done = memo_[vidx])
            return done;
        const jit::VirtualObj &vo = trace_.virtuals[vidx];
        W_Object *w = allocByTypeId(space_, vo.typeId);
        memo_[vidx] = w; // before fields: cycles terminate
        for (uint32_t f = 0; f < vo.fieldRefs.size(); ++f) {
            if (vo.fieldRefs[f] == jit::kNoArg)
                continue;
            w->rtSetField(f, resolveVal(vo.fieldRefs[f]),
                          space_.heap());
        }
        ++materialized_;
        return w;
    }

    uint64_t materializedCount() const { return materialized_; }

  private:
    obj::ObjSpace &space_;
    const jit::Trace &trace_;
    const std::vector<RtVal> &regs_;
    std::vector<W_Object *> &memo_;
    uint64_t materialized_ = 0;
};

} // namespace

DeoptResult
materializeState(obj::ObjSpace &space, const jit::Trace &trace,
                 const jit::Snapshot &snapshot,
                 const std::vector<RtVal> &regs)
{
    std::vector<W_Object *> memo;
    Materializer mat(space, trace, regs, memo);
    DeoptResult out;
    out.traceId = trace.id;
    for (const jit::FrameSnapshot &f : snapshot.frames) {
        FrameState fs;
        fs.code = f.code;
        fs.pc = f.pc;
        fs.locals.reserve(f.locals.size());
        for (int32_t r : f.locals)
            fs.locals.push_back(mat.resolveRef(r));
        fs.stack.reserve(f.stack.size());
        for (int32_t r : f.stack)
            fs.stack.push_back(mat.resolveRef(r));
        out.frames.push_back(std::move(fs));
    }
    return out;
}

void
materializeInputs(obj::ObjSpace &space, const jit::Trace &trace,
                  const jit::Snapshot &snapshot,
                  const std::vector<RtVal> &regs, TransferBuffers &buf)
{
    Materializer mat(space, trace, regs, buf.memo);
    buf.inputs.clear();
    // The order of materializeState: each resolveRef may box (allocate),
    // so the order fixes allocSeq and the GC's view of the heap.
    for (const jit::FrameSnapshot &f : snapshot.frames) {
        for (int32_t r : f.locals)
            buf.inputs.push_back(RtVal::fromRef(mat.resolveRef(r)));
        for (int32_t r : f.stack)
            buf.inputs.push_back(RtVal::fromRef(mat.resolveRef(r)));
    }
}

DeoptResult
blackholeMaterialize(obj::ObjSpace &space, const jit::Trace &trace,
                     const jit::Snapshot &snapshot,
                     const std::vector<RtVal> &regs,
                     uint32_t guard_op_idx)
{
    obj::ExecEnv &env = space.env();
    const obj::CostParams &costs = env.costs();

    // Enter the blackhole phase; the actual reconstruction cost is
    // emitted below, proportional to the number of slots rebuilt.
    uint64_t site = env.blackholeSite();
    sim::BlockEmitter e(env.core(), site);
    e.annot(xlayer::kPhaseEnter, uint32_t(xlayer::Phase::Blackhole));

    std::vector<W_Object *> memo;
    Materializer mat(space, trace, regs, memo);
    DeoptResult out;
    out.traceId = trace.id;
    out.guardOpIdx = guard_op_idx;

    uint64_t slots = 0;
    for (const jit::FrameSnapshot &f : snapshot.frames) {
        FrameState fs;
        fs.code = f.code;
        fs.pc = f.pc;
        fs.locals.reserve(f.locals.size());
        for (int32_t r : f.locals)
            fs.locals.push_back(mat.resolveRef(r));
        fs.stack.reserve(f.stack.size());
        for (int32_t r : f.stack)
            fs.stack.push_back(mat.resolveRef(r));
        slots += f.locals.size() + f.stack.size();
        out.frames.push_back(std::move(fs));
    }

    // Blackhole cost: heavy, branchy, poorly predicted (Table IV shows
    // the worst IPC of all phases).
    uint64_t work = costs.blackholeFixedInsts +
                    slots * costs.blackholePerSlotInsts +
                    mat.materializedCount() * 24;
    for (uint64_t i = 0; i < work; i += 4) {
        sim::BlockEmitter body(env.core(), site + 64);
        body.load(trace.codePc + (i % 1024) * 8, 3);
        body.alu(2);
        // Resume-data decoding branches on irregular encodings:
        // effectively unpredictable.
        body.branch(((i * 2654435761ull) >> 13) & 1);
    }

    e.annot(xlayer::kPhaseExit, uint32_t(xlayer::Phase::Blackhole));
    return out;
}

} // namespace vm
} // namespace xlvm
