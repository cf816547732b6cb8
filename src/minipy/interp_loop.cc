/**
 * @file
 * The MiniPy dispatch loop: bytecode handlers plus the merge-point logic
 * of the meta-tracing framework (hot counters, trace closure, trace
 * entry, call_assembler detection).
 *
 * While tracing, every stack/local slot carries its IR encoding (shadow
 * stacks), captured at push time when the recorder's object-identity
 * mapping is guaranteed fresh. Handlers hint operand encodings to the
 * object space so shared objects (None/bool singletons, interned
 * strings) never resolve through a stale identity mapping.
 */

#include "minipy/interp.h"
#include "xlayer/annot.h"

namespace xlvm {
namespace minipy {

using jit::BoxType;
using jit::IrOp;
using jit::kNoArg;
using obj::CmpOp;
using obj::W_BoundMethod;
using obj::W_Class;
using obj::W_Dict;
using obj::W_Func;
using obj::W_Instance;
using obj::W_List;
using obj::W_NativeFunc;
using obj::W_Object;
using obj::W_Str;
using obj::W_Tuple;

namespace {

constexpr int64_t kHugeStop = int64_t(1) << 40;

} // namespace

void
Interp::pushV(Frame &f, W_Object *w, int32_t enc)
{
    f.stack.push_back(w);
    if (recorder) {
        if (enc == kNoArg)
            enc = w ? recorder->refEncoding(w)
                    : recorder->constRef(nullptr);
        f.stackEnc.push_back(enc);
    }
}

W_Object *
Interp::popV(Frame &f, int32_t *enc)
{
    W_Object *w = f.stack.back();
    f.stack.pop_back();
    int32_t e = kNoArg;
    if (recorder) {
        XLVM_ASSERT(!f.stackEnc.empty(), "shadow stack underflow");
        e = f.stackEnc.back();
        f.stackEnc.pop_back();
    }
    if (enc)
        *enc = e;
    return w;
}

void
Interp::callValue(Frame &f, W_Object *callee, int32_t callee_enc,
                  std::vector<W_Object *> args,
                  std::vector<int32_t> arg_encs)
{
    switch (callee->typeId()) {
      case obj::kTypeFunc: {
        auto *fn = static_cast<W_Func *>(callee);
        if (tracing() && !jit::isConstRef(callee_enc))
            recorder->guardValueRef(callee_enc, callee);
        pushFrame(static_cast<Code *>(fn->code), std::move(args),
                  std::move(arg_encs), fn, false);
        return;
      }
      case obj::kTypeBoundMethod: {
        auto *bm = static_cast<W_BoundMethod *>(callee);
        int32_t selfEnc = kNoArg;
        int32_t fnEnc = kNoArg;
        if (tracing()) {
            if (!jit::isConstRef(callee_enc)) {
                recorder->guardClass(callee_enc, obj::kTypeBoundMethod);
                selfEnc = recorder->emitTyped(
                    IrOp::GetfieldGc, BoxType::Ref, callee_enc, kNoArg,
                    kNoArg, obj::kFieldBoundSelf);
                fnEnc = recorder->emitTyped(
                    IrOp::GetfieldGc, BoxType::Ref, callee_enc, kNoArg,
                    kNoArg, obj::kFieldBoundFunc);
                recorder->guardValueRef(fnEnc, bm->func);
            } else {
                selfEnc = recorder->refEncoding(bm->self);
                fnEnc = recorder->constRef(bm->func);
            }
        }
        args.insert(args.begin(), bm->self);
        arg_encs.insert(arg_encs.begin(), selfEnc);
        callValue(f, bm->func, fnEnc, std::move(args),
                  std::move(arg_encs));
        return;
      }
      case obj::kTypeNativeFunc: {
        auto *nf = static_cast<W_NativeFunc *>(callee);
        if (tracing() && !jit::isConstRef(callee_enc))
            recorder->guardValueRef(callee_enc, callee);
        if (tracing()) {
            space().hintClear();
            for (size_t i = 0; i < args.size(); ++i)
                space().hintOperand(args[i], arg_encs[i]);
        }
        W_Object *res = callBuiltin(*this, nf->builtinId, args);
        if (res)
            pushV(f, res);
        return;
      }
      case obj::kTypeClass: {
        auto *cls = static_cast<W_Class *>(callee);
        if (tracing() && !jit::isConstRef(callee_enc))
            recorder->guardValueRef(callee_enc, callee);
        W_Instance *inst = space().instantiate(cls);
        pushV(f, inst);
        W_Object *init = cls->findMethod(space().intern("__init__"));
        if (init) {
            int32_t instEnc =
                tracing() ? recorder->refEncoding(inst) : kNoArg;
            args.insert(args.begin(), inst);
            arg_encs.insert(arg_encs.begin(), instEnc);
            auto *initFn = static_cast<W_Func *>(init);
            pushFrame(static_cast<Code *>(initFn->code),
                      std::move(args), std::move(arg_encs), initFn,
                      /*discard_return=*/true);
        }
        return;
      }
      default:
        XLVM_FATAL("object of type ", obj::typeName(callee->typeId()),
                   " is not callable");
    }
}

bool
Interp::loop()
{
    obj::ObjSpace &sp = space();

    while (!frames.empty()) {
        Frame &f = *frames.back();
        XLVM_ASSERT(f.pc < f.code->instrs.size(), "pc out of range in ",
                    f.code->name);

        // Budget check (coarse).
        if ((dispatchCount & 255) == 0 && ctx.budgetExhausted()) {
            if (tracing())
                abortTrace(jit::AbortReason::kBudgetExhausted);
            return false;
        }
        ++dispatchCount;

        // GC safepoint: full root set is visible here.
        ctx.heap.safepoint();

        // Fault-injection trigger points (zero-cost when disarmed: one
        // predictable branch). Trigger counters are deterministic: they
        // tick per dispatch (gc_hook) or per traced dispatch
        // (recorder), never on wall-clock or sampled state.
        if (ctx.faults.armed()) {
            if (tracing() &&
                ctx.faults.shouldFire(rt::FaultSite::kRecorder)) {
                // Simulated recorder type-confusion: safe bailout.
                abortTrace(jit::AbortReason::kInjected);
            }
            if (ctx.faults.shouldFire(rt::FaultSite::kGcHook) &&
                tracing()) {
                // A GC hook misbehaving mid-recording invalidates the
                // recorder's object identities: discard the recording.
                abortTrace(jit::AbortReason::kInjected);
            }
        }

        // Merge-point logic while tracing. Note: compiled traces are
        // *entered* only from backward jumps (the can_enter_jit point in
        // the JumpBack handler), never on mere arrival at a header — a
        // deopt that resumes at the header must re-execute the loop
        // bytecode before the trace can be tried again.
        if (ctx.config.jit.enableJit && tracing() &&
            f.pc < f.code->isLoopHeader.size() &&
            f.code->isLoopHeader[f.pc]) {
            bool justFinished = false;
            if (!recordingBridge && &f == traceRootFrame &&
                f.code == traceAnchorCode && f.pc == traceAnchorPc &&
                recorder->numOps() > 1) {
                finishLoopTrace();
                justFinished = true;
            } else if (recordingBridge && &f == traceRootFrame &&
                       recorder->numOps() > 1) {
                jit::Trace *target = ctx.registry.loopFor(f.code, f.pc);
                if (target &&
                    target->numInputs ==
                        f.locals.size() + f.stack.size()) {
                    finishBridgeTrace(target);
                    justFinished = true;
                }
            } else if (!(recordingBridge && &f == traceRootFrame) &&
                       maybeCallAssembler(f)) {
                // Inner compiled loop in a *different* context becomes
                // call_assembler. A bridge-root frame never takes this
                // path: a bridge starting at a header records one full
                // iteration and closes with a jump instead (otherwise
                // bridge -> call_assembler(parent) -> bridge would nest
                // unboundedly). The inner trace advanced the frame
                // state; restart dispatch.
                continue;
            }
            // A freshly compiled trace is entered immediately (we got
            // here via a backward jump while recording it).
            if (justFinished && !tracing() &&
                maybeEnterCompiledTrace(*frames.back()))
                continue;
        }

        Frame &fr = *frames.back();
        const Instr ins = fr.code->instrs[fr.pc];
        ++executedCount;
        emitDispatch(uint8_t(ins.op));

        if (tracing()) {
            emitTracingCost();
            // Snapshot state must be the bytecode-START state (pc not
            // yet advanced, operands still on the stack) so deopts
            // re-execute the current bytecode. Capture eagerly.
            jit::Snapshot snap = captureSnapshot();
            if (!recorder->atMergePoint(
                    uint8_t(ins.op),
                    [s = std::move(snap)] { return s; })) {
                abortTrace(jit::AbortReason::kTraceTooLong);
            }
        }

        ++fr.pc;
        sim::BlockEmitter h(ctx.core, handlerPc[size_t(ins.op)] + 16);
        sp.hintClear();

        switch (ins.op) {
          case Op::LoadConst: {
            W_Object *w = fr.code->consts[ins.arg];
            h.loadPtr(w, 1);
            // Code constants always encode as constants; identity lookup
            // could alias them to a dynamic box holding the same object.
            pushV(fr, w,
                  tracing() ? recorder->constRef(w) : kNoArg);
            break;
          }
          case Op::LoadFast: {
            W_Object *w = fr.locals[ins.arg];
            XLVM_ASSERT(w, "unbound local '",
                        fr.code->localNames[ins.arg], "' in ",
                        fr.code->name);
            h.loadPtr(w, 1);
            h.alu(1);
            pushV(fr, w,
                  tracing() ? fr.localEnc[ins.arg] : kNoArg);
            break;
          }
          case Op::StoreFast: {
            h.alu(2);
            int32_t e;
            fr.locals[ins.arg] = popV(fr, &e);
            if (tracing())
                fr.localEnc[ins.arg] = e;
            break;
          }
          case Op::LoadGlobal: {
            W_Str *name = fr.code->names[ins.arg];
            W_Object *w = sp.getGlobal(globalsDict, name);
            XLVM_ASSERT(w, "NameError: ", name->value);
            pushV(fr, w);
            break;
          }
          case Op::StoreGlobal: {
            W_Str *name = fr.code->names[ins.arg];
            int32_t e;
            W_Object *w = popV(fr, &e);
            sp.hintOperand(w, e);
            sp.setGlobal(globalsDict, name, w);
            break;
          }
          case Op::LoadAttr: {
            int32_t e;
            W_Object *objv = popV(fr, &e);
            sp.hintOperand(objv, e);
            W_Str *name = fr.code->names[ins.arg];
            if (objv->typeId() == obj::kTypeInstance) {
                pushV(fr, sp.getattr(objv, name));
            } else {
                uint32_t bi = builtinMethodFor(objv->typeId(),
                                               name->value);
                XLVM_ASSERT(bi, "no attribute '", name->value, "' on ",
                            obj::typeName(objv->typeId()));
                W_NativeFunc *nf = ctx.heap.alloc<W_NativeFunc>(
                    bi, name->value);
                W_BoundMethod *bm =
                    ctx.heap.alloc<W_BoundMethod>(objv, nf);
                if (tracing()) {
                    // The method is determined by the receiver type,
                    // which we guard; the bound method is a fresh
                    // (virtualizable) allocation.
                    sp.recGuardType(objv);
                    int32_t fnc = recorder->constRef(nf);
                    int32_t box = recorder->emit(IrOp::NewWithVtable,
                                                 kNoArg, kNoArg, kNoArg,
                                                 obj::kTypeBoundMethod);
                    recorder->emit(IrOp::SetfieldGc, box,
                                   sp.recRef(objv), kNoArg,
                                   obj::kFieldBoundSelf);
                    recorder->emit(IrOp::SetfieldGc, box, fnc, kNoArg,
                                   obj::kFieldBoundFunc);
                    recorder->mapRef(bm, box);
                }
                pushV(fr, bm);
            }
            break;
          }
          case Op::StoreAttr: {
            int32_t eo, ev;
            W_Object *objv = popV(fr, &eo);
            W_Object *value = popV(fr, &ev);
            sp.hintOperand(objv, eo);
            sp.hintOperand(value, ev);
            sp.setattr(objv, fr.code->names[ins.arg], value);
            break;
          }

          case Op::BinAdd:
          case Op::BinSub:
          case Op::BinMul:
          case Op::BinTrueDiv:
          case Op::BinFloorDiv:
          case Op::BinMod:
          case Op::BinPow:
          case Op::BinAnd:
          case Op::BinOr:
          case Op::BinXor:
          case Op::BinLshift:
          case Op::BinRshift: {
            int32_t el, er;
            W_Object *r = popV(fr, &er);
            W_Object *l = popV(fr, &el);
            sp.hintOperand(l, el);
            sp.hintOperand(r, er);
            W_Object *res = nullptr;
            switch (ins.op) {
              case Op::BinAdd: res = sp.add(l, r); break;
              case Op::BinSub: res = sp.sub(l, r); break;
              case Op::BinMul: res = sp.mul(l, r); break;
              case Op::BinTrueDiv: res = sp.truediv(l, r); break;
              case Op::BinFloorDiv: res = sp.floordiv(l, r); break;
              case Op::BinMod: res = sp.mod(l, r); break;
              case Op::BinPow: res = sp.pow_(l, r); break;
              case Op::BinAnd: res = sp.bitAnd(l, r); break;
              case Op::BinOr: res = sp.bitOr(l, r); break;
              case Op::BinXor: res = sp.bitXor(l, r); break;
              case Op::BinLshift: res = sp.lshift(l, r); break;
              case Op::BinRshift: res = sp.rshift(l, r); break;
              default: break;
            }
            pushV(fr, res);
            break;
          }
          case Op::UnaryNeg: {
            int32_t e;
            W_Object *w = popV(fr, &e);
            sp.hintOperand(w, e);
            pushV(fr, sp.neg(w));
            break;
          }
          case Op::UnaryNot: {
            int32_t e;
            W_Object *w = popV(fr, &e);
            sp.hintOperand(w, e);
            pushV(fr, sp.boolNot(w));
            break;
          }

          case Op::CmpLt:
          case Op::CmpLe:
          case Op::CmpEq:
          case Op::CmpNe:
          case Op::CmpGt:
          case Op::CmpGe:
          case Op::CmpIs:
          case Op::CmpIsNot:
          case Op::CmpIn:
          case Op::CmpNotIn: {
            static const CmpOp kMap[] = {
                CmpOp::Lt, CmpOp::Le, CmpOp::Eq,    CmpOp::Ne,
                CmpOp::Gt, CmpOp::Ge, CmpOp::Is,    CmpOp::IsNot,
                CmpOp::In, CmpOp::NotIn};
            int32_t el, er;
            W_Object *r = popV(fr, &er);
            W_Object *l = popV(fr, &el);
            sp.hintOperand(l, el);
            sp.hintOperand(r, er);
            CmpOp c = kMap[int(ins.op) - int(Op::CmpLt)];
            pushV(fr, sp.cmp(c, l, r));
            break;
          }

          case Op::BinSubscr: {
            int32_t ei, eo;
            W_Object *idx = popV(fr, &ei);
            W_Object *objv = popV(fr, &eo);
            sp.hintOperand(objv, eo);
            sp.hintOperand(idx, ei);
            pushV(fr, sp.getitem(objv, idx));
            break;
          }
          case Op::StoreSubscr: {
            int32_t ei, eo, ev;
            W_Object *idx = popV(fr, &ei);
            W_Object *objv = popV(fr, &eo);
            W_Object *value = popV(fr, &ev);
            sp.hintOperand(objv, eo);
            sp.hintOperand(idx, ei);
            sp.hintOperand(value, ev);
            sp.setitem(objv, idx, value);
            break;
          }
          case Op::LoadSlice: {
            int32_t eh, el2, eo;
            W_Object *hi = popV(fr, &eh);
            W_Object *lo = popV(fr, &el2);
            W_Object *objv = popV(fr, &eo);
            sp.hintOperand(objv, eo);
            sp.hintOperand(lo, el2);
            sp.hintOperand(hi, eh);
            int64_t start = 0, stop = kHugeStop;
            int32_t se = kNoArg, pe = kNoArg;
            if (lo->typeId() != obj::kTypeNone) {
                start = sp.unwrapInt(lo);
                if (tracing()) {
                    sp.recGuardType(lo);
                    se = sp.recUnboxInt(lo);
                }
            } else if (tracing()) {
                se = recorder->constInt(0);
            }
            if (hi->typeId() != obj::kTypeNone) {
                stop = sp.unwrapInt(hi);
                if (tracing()) {
                    sp.recGuardType(hi);
                    pe = sp.recUnboxInt(hi);
                }
            } else if (tracing()) {
                pe = recorder->constInt(kHugeStop);
            }
            if (objv->typeId() == obj::kTypeList) {
                if (tracing())
                    sp.recGuardType(objv);
                pushV(fr, sp.listSlice(static_cast<W_List *>(objv),
                                       start, stop, se, pe));
            } else if (objv->typeId() == obj::kTypeStr) {
                if (tracing())
                    sp.recGuardType(objv);
                pushV(fr, sp.strSlice(static_cast<W_Str *>(objv), start,
                                      stop, se, pe));
            } else {
                XLVM_FATAL("cannot slice ",
                           obj::typeName(objv->typeId()));
            }
            break;
          }
          case Op::StoreSlice: {
            int32_t eh, el2, eo, ev;
            W_Object *hi = popV(fr, &eh);
            W_Object *lo = popV(fr, &el2);
            W_Object *objv = popV(fr, &eo);
            W_Object *value = popV(fr, &ev);
            sp.hintOperand(objv, eo);
            sp.hintOperand(lo, el2);
            sp.hintOperand(hi, eh);
            sp.hintOperand(value, ev);
            XLVM_ASSERT(objv->typeId() == obj::kTypeList &&
                            value->typeId() == obj::kTypeList,
                        "slice assignment requires lists");
            int64_t start = 0, stop = kHugeStop;
            int32_t se = kNoArg, pe = kNoArg;
            if (lo->typeId() != obj::kTypeNone) {
                start = sp.unwrapInt(lo);
                if (tracing()) {
                    sp.recGuardType(lo);
                    se = sp.recUnboxInt(lo);
                }
            } else if (tracing()) {
                se = recorder->constInt(0);
            }
            if (hi->typeId() != obj::kTypeNone) {
                stop = sp.unwrapInt(hi);
                if (tracing()) {
                    sp.recGuardType(hi);
                    pe = sp.recUnboxInt(hi);
                }
            } else if (tracing()) {
                pe = recorder->constInt(kHugeStop);
            }
            if (tracing()) {
                sp.recGuardType(objv);
                sp.recGuardType(value);
            }
            int64_t n = int64_t(static_cast<W_List *>(objv)->length());
            if (stop > n)
                stop = n;
            sp.listSetSlice(static_cast<W_List *>(objv), start, stop,
                            static_cast<W_List *>(value), se, pe);
            break;
          }

          case Op::Jump:
            h.alu(1);
            fr.pc = uint32_t(ins.arg);
            break;
          case Op::JumpBack:
            h.alu(1);
            fr.pc = uint32_t(ins.arg);
            // can_enter_jit: enter a compiled loop or bump its counter.
            if (ctx.config.jit.enableJit && !tracing()) {
                if (!maybeEnterCompiledTrace(fr))
                    bumpLoopCounter(fr.code, uint32_t(ins.arg));
            }
            break;
          case Op::PopJumpIfFalse: {
            int32_t e;
            W_Object *c = popV(fr, &e);
            sp.hintOperand(c, e);
            if (!sp.isTrueAndGuard(c))
                fr.pc = uint32_t(ins.arg);
            break;
          }
          case Op::PopJumpIfTrue: {
            int32_t e;
            W_Object *c = popV(fr, &e);
            sp.hintOperand(c, e);
            if (sp.isTrueAndGuard(c))
                fr.pc = uint32_t(ins.arg);
            break;
          }
          case Op::JumpIfFalseOrPop: {
            W_Object *c = fr.top();
            if (tracing())
                sp.hintOperand(c, fr.stackEnc.back());
            if (!sp.isTrueAndGuard(c))
                fr.pc = uint32_t(ins.arg);
            else
                popV(fr);
            break;
          }
          case Op::JumpIfTrueOrPop: {
            W_Object *c = fr.top();
            if (tracing())
                sp.hintOperand(c, fr.stackEnc.back());
            if (sp.isTrueAndGuard(c))
                fr.pc = uint32_t(ins.arg);
            else
                popV(fr);
            break;
          }

          case Op::GetIter: {
            int32_t e;
            W_Object *w = popV(fr, &e);
            sp.hintOperand(w, e);
            pushV(fr, sp.iter(w));
            break;
          }
          case Op::ForIter: {
            W_Object *it = fr.top();
            if (tracing())
                sp.hintOperand(it, fr.stackEnc.back());
            W_Object *next = sp.iterNext(it);
            if (next)
                pushV(fr, next);
            else
                fr.pc = uint32_t(ins.arg);
            break;
          }

          case Op::CallFunction: {
            std::vector<W_Object *> args(ins.arg);
            std::vector<int32_t> argEncs(ins.arg, kNoArg);
            for (int i = ins.arg - 1; i >= 0; --i)
                args[i] = popV(fr, &argEncs[i]);
            int32_t calleeEnc;
            W_Object *callee = popV(fr, &calleeEnc);
            callValue(fr, callee, calleeEnc, std::move(args),
                      std::move(argEncs));
            break;
          }
          case Op::ReturnValue: {
            int32_t e;
            W_Object *result = popV(fr, &e);
            bool discard = fr.discardReturn;
            if (tracing()) {
                if (frames.size() - 1 == traceRootDepth) {
                    abortTrace(jit::AbortReason::kRootEscape);
                    e = kNoArg;
                } else if (frames.size() - 1 < traceRootDepth) {
                    XLVM_PANIC("trace root below current frame");
                }
            }
            frames.pop_back();
            if (!frames.empty() && !discard)
                pushV(*frames.back(), result, e);
            break;
          }
          case Op::PopTop:
            h.alu(1);
            popV(fr);
            break;
          case Op::DupTop: {
            h.alu(1);
            int32_t e = tracing() ? fr.stackEnc.back() : kNoArg;
            pushV(fr, fr.top(), e);
            break;
          }
          case Op::DupTopTwo: {
            h.alu(2);
            size_t n = fr.stack.size();
            W_Object *a = fr.stack[n - 2];
            W_Object *b = fr.stack[n - 1];
            int32_t ea = kNoArg, eb = kNoArg;
            if (tracing()) {
                ea = fr.stackEnc[n - 2];
                eb = fr.stackEnc[n - 1];
            }
            pushV(fr, a, ea);
            pushV(fr, b, eb);
            break;
          }
          case Op::RotTwo: {
            h.alu(2);
            size_t n = fr.stack.size();
            std::swap(fr.stack[n - 1], fr.stack[n - 2]);
            if (tracing())
                std::swap(fr.stackEnc[n - 1], fr.stackEnc[n - 2]);
            break;
          }
          case Op::RotThree: {
            h.alu(3);
            size_t n = fr.stack.size();
            W_Object *top = fr.stack[n - 1];
            fr.stack[n - 1] = fr.stack[n - 2];
            fr.stack[n - 2] = fr.stack[n - 3];
            fr.stack[n - 3] = top;
            if (tracing()) {
                int32_t et = fr.stackEnc[n - 1];
                fr.stackEnc[n - 1] = fr.stackEnc[n - 2];
                fr.stackEnc[n - 2] = fr.stackEnc[n - 3];
                fr.stackEnc[n - 3] = et;
            }
            break;
          }

          case Op::BuildList: {
            W_List *lst = sp.newList();
            if (tracing()) {
                int32_t enc = sp.recCall(IrOp::Call,
                                         rt::kAotAllocContainer,
                                         BoxType::Ref, kNoArg, kNoArg,
                                         kNoArg, obj::kSemNewList);
                recorder->mapRef(lst, enc);
            }
            std::vector<W_Object *> items(ins.arg);
            std::vector<int32_t> encs(ins.arg, kNoArg);
            for (int i = ins.arg - 1; i >= 0; --i)
                items[i] = popV(fr, &encs[i]);
            for (int i = 0; i < ins.arg; ++i) {
                sp.hintClear();
                sp.hintOperand(items[i], encs[i]);
                sp.listAppend(lst, items[i]);
            }
            pushV(fr, lst);
            break;
          }
          case Op::BuildTuple: {
            std::vector<W_Object *> items(ins.arg);
            std::vector<int32_t> encs(ins.arg, kNoArg);
            for (int i = ins.arg - 1; i >= 0; --i)
                items[i] = popV(fr, &encs[i]);
            if (tracing() && ins.arg > jit::kMaxOpArgs)
                abortTrace(jit::AbortReason::kUnsupportedOp);
            W_Tuple *t;
            if (tracing()) {
                int32_t a[jit::kMaxOpArgs] = {kNoArg, kNoArg, kNoArg,
                                              kNoArg};
                for (int i = 0; i < ins.arg; ++i)
                    a[i] = encs[i];
                t = sp.newTuple(std::move(items));
                int32_t enc = sp.recCall(
                    IrOp::Call, rt::kAotAllocContainer, BoxType::Ref,
                    a[0], a[1], a[2], obj::kSemNewTuple, a[3]);
                recorder->mapRef(t, enc);
            } else {
                t = sp.newTuple(std::move(items));
            }
            pushV(fr, t);
            break;
          }
          case Op::BuildMap: {
            W_Dict *d = sp.newDict();
            if (tracing()) {
                int32_t enc = sp.recCall(IrOp::Call,
                                         rt::kAotAllocContainer,
                                         BoxType::Ref, kNoArg, kNoArg,
                                         kNoArg, obj::kSemNewDict);
                recorder->mapRef(d, enc);
            }
            std::vector<W_Object *> kv(ins.arg * 2);
            std::vector<int32_t> encs(ins.arg * 2, kNoArg);
            for (int i = ins.arg * 2 - 1; i >= 0; --i)
                kv[i] = popV(fr, &encs[i]);
            for (int i = 0; i < ins.arg; ++i) {
                sp.hintClear();
                sp.hintOperand(kv[i * 2], encs[i * 2]);
                sp.hintOperand(kv[i * 2 + 1], encs[i * 2 + 1]);
                sp.dictSet(d, kv[i * 2], kv[i * 2 + 1]);
            }
            pushV(fr, d);
            break;
          }
          case Op::BuildSet: {
            obj::W_Set *s = sp.newSet();
            if (tracing()) {
                int32_t enc = sp.recCall(IrOp::Call,
                                         rt::kAotAllocContainer,
                                         BoxType::Ref, kNoArg, kNoArg,
                                         kNoArg, obj::kSemNewSet);
                recorder->mapRef(s, enc);
            }
            std::vector<W_Object *> items(ins.arg);
            std::vector<int32_t> encs(ins.arg, kNoArg);
            for (int i = ins.arg - 1; i >= 0; --i)
                items[i] = popV(fr, &encs[i]);
            for (int i = 0; i < ins.arg; ++i) {
                sp.hintClear();
                sp.hintOperand(items[i], encs[i]);
                sp.setAdd(s, items[i]);
            }
            pushV(fr, s);
            break;
          }
          case Op::UnpackSequence: {
            int32_t es;
            W_Object *seq = popV(fr, &es);
            sp.hintOperand(seq, es);
            int n = ins.arg;
            if (seq->typeId() == obj::kTypeTuple) {
                auto *t = static_cast<W_Tuple *>(seq);
                XLVM_ASSERT(int(t->items.size()) == n,
                            "unpack arity mismatch");
                std::vector<int32_t> encs(n, kNoArg);
                if (tracing()) {
                    sp.recGuardType(seq);
                    int32_t sref = sp.recRef(seq);
                    for (int i = 0; i < n; ++i) {
                        encs[i] = recorder->emitTyped(
                            IrOp::GetarrayitemGc, BoxType::Ref, sref,
                            recorder->constInt(i));
                        recorder->mapRef(t->items[i], encs[i]);
                    }
                }
                for (int i = n - 1; i >= 0; --i)
                    pushV(fr, t->items[i], encs[i]);
            } else if (seq->typeId() == obj::kTypeList) {
                auto *lst = static_cast<W_List *>(seq);
                XLVM_ASSERT(int(lst->length()) == n,
                            "unpack arity mismatch");
                std::vector<W_Object *> items;
                for (int i = 0; i < n; ++i) {
                    W_Object *idx = sp.newInt(i);
                    if (tracing()) {
                        sp.hintClear();
                        sp.hintOperand(seq, es);
                        sp.hintOperand(idx, recorder->constRef(idx));
                    }
                    items.push_back(sp.getitem(seq, idx));
                }
                for (int i = n - 1; i >= 0; --i)
                    pushV(fr, items[i]);
            } else {
                XLVM_FATAL("cannot unpack ",
                           obj::typeName(seq->typeId()));
            }
            break;
          }

          case Op::MakeFunction: {
            if (tracing())
                abortTrace(jit::AbortReason::kUnsupportedOp);
            Code *code = prog.codes[ins.arg].get();
            W_Func *fn = ctx.heap.alloc<W_Func>(code, globalsDict,
                                                code->name);
            for (uint32_t i = 0; i < code->numDefaults; ++i)
                fn->defaults.insert(fn->defaults.begin(), popV(fr));
            pushV(fr, fn);
            break;
          }
          case Op::MakeClass: {
            if (tracing())
                abortTrace(jit::AbortReason::kUnsupportedOp);
            const ClassSpec &spec = prog.classes[ins.arg];
            W_Class *cls = ctx.heap.alloc<W_Class>(spec.name);
            if (!spec.baseName.empty()) {
                W_Object *base = sp.getGlobal(
                    globalsDict, sp.intern(spec.baseName));
                XLVM_ASSERT(base &&
                                base->typeId() == obj::kTypeClass,
                            "unknown base class ", spec.baseName);
                cls->base = static_cast<W_Class *>(base);
            }
            cls->instanceMap = ctx.heap.alloc<obj::W_Map>();
            cls->instanceMap->ownerClass = cls;
            ctx.heap.writeBarrier(cls);
            for (const auto &[mname, mcode] : spec.methods) {
                W_Func *m = ctx.heap.alloc<W_Func>(mcode, globalsDict,
                                                   mname);
                W_Str *key = sp.intern(mname);
                cls->methods.set(key, key->hash(), m);
                ctx.heap.writeBarrier(cls);
            }
            pushV(fr, cls);
            break;
          }

          case Op::Nop:
            break;
          default:
            XLVM_PANIC("unhandled opcode ", int(ins.op));
        }
    }
    return true;
}

const char *
opName(Op op)
{
    switch (op) {
      case Op::LoadConst: return "LOAD_CONST";
      case Op::LoadFast: return "LOAD_FAST";
      case Op::StoreFast: return "STORE_FAST";
      case Op::LoadGlobal: return "LOAD_GLOBAL";
      case Op::StoreGlobal: return "STORE_GLOBAL";
      case Op::LoadAttr: return "LOAD_ATTR";
      case Op::StoreAttr: return "STORE_ATTR";
      case Op::BinAdd: return "BINARY_ADD";
      case Op::BinSub: return "BINARY_SUB";
      case Op::BinMul: return "BINARY_MUL";
      case Op::BinTrueDiv: return "BINARY_TRUEDIV";
      case Op::BinFloorDiv: return "BINARY_FLOORDIV";
      case Op::BinMod: return "BINARY_MOD";
      case Op::BinPow: return "BINARY_POW";
      case Op::CallFunction: return "CALL_FUNCTION";
      case Op::ReturnValue: return "RETURN_VALUE";
      case Op::ForIter: return "FOR_ITER";
      case Op::JumpBack: return "JUMP_BACK";
      default: return "OP";
    }
}

} // namespace minipy
} // namespace xlvm
