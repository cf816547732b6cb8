/**
 * @file
 * The boxed object model shared by the modeled VMs.
 *
 * Mirrors PyPy's object space: everything is a W_Object with a type id;
 * lists and sets use storage strategies; user instances use maps (shapes)
 * with transition caching; dicts are insertion-ordered with a version
 * counter (the versioned-dict mechanism behind JIT global folding).
 *
 * Field and array accessors (rtGetField / rtSetField / rtGetItem /
 * rtSetItem) give the trace executor raw, dispatch-free access to object
 * state — the reflection layer that getfield_gc / getarrayitem_gc IR ops
 * operate through.
 */

#ifndef XLVM_OBJ_WOBJECT_H
#define XLVM_OBJ_WOBJECT_H

#include <string>
#include <unordered_map>
#include <vector>

#include "gc/heap.h"
#include "jit/ir.h"
#include "rt/rbigint.h"
#include "rt/rdict.h"

namespace xlvm {
namespace obj {

/** Type ids; stable, used in guard_class / new_with_vtable IR. */
enum TypeId : uint16_t
{
    kTypeInvalid = 0,
    kTypeNone,
    kTypeBool,
    kTypeInt,
    kTypeBigInt,
    kTypeFloat,
    kTypeStr,
    kTypeTuple,
    kTypeList,
    kTypeDict,
    kTypeSet,
    kTypeFunc,
    kTypeNativeFunc,
    kTypeBoundMethod,
    kTypeClass,
    kTypeInstance,
    kTypeMap,
    kTypeCell,
    kTypeRange,
    kTypeListIter,
    kTypeRangeIter,
    kTypeDictIter,
    kTypeStrIter,
    kTypeTupleIter,
    kTypeSetIter,
    kTypePair,
    kTypeSymbol,
    kTypeChar,
    kTypeClosure,
    kNumTypeIds
};

const char *typeName(uint16_t type_id);

/** Well-known field indices for rtGetField/rtSetField. */
enum FieldIdx : uint32_t
{
    kFieldValue = 0,      ///< W_Int/W_Float/W_Bool value, W_Cell value
    kFieldMap = 0,        ///< W_Instance map
    kFieldStrategy = 0,   ///< W_List/W_Set strategy
    kFieldLength = 1,     ///< W_List length
    kFieldIterIndex = 0,  ///< iterator position
    kFieldIterTarget = 1, ///< iterator target object
    kFieldRangeCur = 0,
    kFieldRangeStop = 1,
    kFieldRangeStep = 2,
    kFieldCar = 0, ///< W_Pair
    kFieldCdr = 1,
    kFieldDictVersion = 7, ///< W_Dict version counter
    kFieldBoundSelf = 0,   ///< W_BoundMethod
    kFieldBoundFunc = 1,
};

class W_Object : public gc::GcObject
{
  public:
    explicit W_Object(uint16_t type_id) { gcTypeId = type_id; }

    uint16_t typeId() const { return gcTypeId; }

    /** Raw field access for the trace executor. */
    virtual jit::RtVal rtGetField(uint32_t idx) const;
    virtual void rtSetField(uint32_t idx, const jit::RtVal &v,
                            gc::Heap &heap);
    /** Raw array-element access for the trace executor. */
    virtual jit::RtVal rtGetItem(int64_t idx) const;
    virtual void rtSetItem(int64_t idx, const jit::RtVal &v,
                           gc::Heap &heap);
    virtual int64_t rtLen() const;

    // GcObject defaults: leaf object.
    void traceRefs(gc::GcVisitor &) override {}
    size_t heapBytes() const override { return 32; }
};

// ----------------------------------------------------------------- atoms

class W_None : public W_Object
{
  public:
    W_None() : W_Object(kTypeNone) {}
};

class W_Bool : public W_Object
{
  public:
    explicit W_Bool(bool v) : W_Object(kTypeBool), value(v ? 1 : 0) {}
    jit::RtVal rtGetField(uint32_t idx) const override;
    void rtSetField(uint32_t idx, const jit::RtVal &v,
                    gc::Heap &heap) override;
    int64_t value;
};

class W_Int : public W_Object
{
  public:
    explicit W_Int(int64_t v = 0) : W_Object(kTypeInt), value(v) {}
    jit::RtVal rtGetField(uint32_t idx) const override;
    void rtSetField(uint32_t idx, const jit::RtVal &v,
                    gc::Heap &heap) override;
    int64_t value;
};

class W_BigInt : public W_Object
{
  public:
    explicit W_BigInt(rt::RBigInt v = rt::RBigInt())
        : W_Object(kTypeBigInt), value(std::move(v))
    {
    }
    size_t
    heapBytes() const override
    {
        return sizeof(W_BigInt) + value.numDigits() * 4;
    }
    rt::RBigInt value;
};

class W_Float : public W_Object
{
  public:
    explicit W_Float(double v = 0.0) : W_Object(kTypeFloat), value(v) {}
    jit::RtVal rtGetField(uint32_t idx) const override;
    void rtSetField(uint32_t idx, const jit::RtVal &v,
                    gc::Heap &heap) override;
    double value;
};

class W_Str : public W_Object
{
  public:
    explicit W_Str(std::string v = "") : W_Object(kTypeStr),
                                          value(std::move(v))
    {
    }
    size_t
    heapBytes() const override
    {
        return sizeof(W_Str) + value.size();
    }
    int64_t rtLen() const override { return int64_t(value.size()); }
    jit::RtVal rtGetItem(int64_t idx) const override;

    /** Lazily computed, cached hash (ll_strhash semantics). */
    uint64_t hash() const;

    std::string value;

  private:
    mutable uint64_t cachedHash = 0;
};

class W_Symbol : public W_Object
{
  public:
    explicit W_Symbol(std::string n) : W_Object(kTypeSymbol),
                                        name(std::move(n))
    {
    }
    size_t
    heapBytes() const override
    {
        return sizeof(W_Symbol) + name.size();
    }
    std::string name;
};

class W_Char : public W_Object
{
  public:
    explicit W_Char(char v) : W_Object(kTypeChar), value(v) {}
    jit::RtVal rtGetField(uint32_t idx) const override;
    char value;
};

// --------------------------------------------------------------- containers

class W_Tuple : public W_Object
{
  public:
    explicit W_Tuple(std::vector<W_Object *> it = {})
        : W_Object(kTypeTuple), items(std::move(it))
    {
    }
    void traceRefs(gc::GcVisitor &v) override;
    size_t
    heapBytes() const override
    {
        return sizeof(W_Tuple) + items.size() * 8;
    }
    int64_t rtLen() const override { return int64_t(items.size()); }
    jit::RtVal rtGetItem(int64_t idx) const override;

    std::vector<W_Object *> items;
};

/** List storage strategies (PyPy list strategies). */
enum class ListStrategy : uint8_t
{
    Empty = 0,
    Int,
    Float,
    Object
};

class W_List : public W_Object
{
  public:
    W_List() : W_Object(kTypeList) {}

    void traceRefs(gc::GcVisitor &v) override;
    size_t heapBytes() const override;

    jit::RtVal rtGetField(uint32_t idx) const override;
    int64_t rtLen() const override;
    jit::RtVal rtGetItem(int64_t idx) const override;
    void rtSetItem(int64_t idx, const jit::RtVal &v,
                   gc::Heap &heap) override;

    ListStrategy strategy = ListStrategy::Empty;
    std::vector<int64_t> ints;
    std::vector<double> floats;
    std::vector<W_Object *> objs;

    size_t
    length() const
    {
        switch (strategy) {
          case ListStrategy::Empty:
            return 0;
          case ListStrategy::Int:
            return ints.size();
          case ListStrategy::Float:
            return floats.size();
          case ListStrategy::Object:
            return objs.size();
        }
        return 0;
    }
};

/** Object hashing/equality for dict and set keys. */
uint64_t objHash(const W_Object *o);
bool objEq(const W_Object *a, const W_Object *b);

struct WKeyTraits
{
    static bool
    equal(W_Object *a, W_Object *b)
    {
        return objEq(a, b);
    }
};

class W_Dict : public W_Object
{
  public:
    W_Dict() : W_Object(kTypeDict) {}

    void traceRefs(gc::GcVisitor &v) override;
    size_t heapBytes() const override;
    int64_t rtLen() const override { return int64_t(table.size()); }
    jit::RtVal rtGetField(uint32_t idx) const override;

    rt::ROrderedDict<W_Object *, W_Object *, WKeyTraits> table;
};

/** Set storage strategies (PyPy set strategies). */
enum class SetStrategy : uint8_t
{
    Empty = 0,
    Int,
    Bytes, ///< string elements
    Object
};

class W_Set : public W_Object
{
  public:
    W_Set() : W_Object(kTypeSet) {}
    void traceRefs(gc::GcVisitor &v) override;
    size_t heapBytes() const override;
    int64_t rtLen() const override { return int64_t(table.size()); }
    jit::RtVal rtGetField(uint32_t idx) const override;

    SetStrategy strategy = SetStrategy::Empty;
    rt::ROrderedDict<W_Object *, W_Object *, WKeyTraits> table;
};

// --------------------------------------------------------------- callables

class W_Func : public W_Object
{
  public:
    W_Func(void *code_obj, W_Dict *globals_dict, std::string fn_name)
        : W_Object(kTypeFunc), code(code_obj), globals(globals_dict),
          name(std::move(fn_name))
    {
    }
    void traceRefs(gc::GcVisitor &v) override;
    size_t
    heapBytes() const override
    {
        return sizeof(W_Func) + name.size();
    }

    void *code;      ///< language-layer code object (not GC-managed)
    W_Dict *globals; ///< module globals
    std::string name;
    std::vector<W_Object *> defaults;
};

class W_NativeFunc : public W_Object
{
  public:
    W_NativeFunc(uint32_t builtin, std::string fn_name)
        : W_Object(kTypeNativeFunc), builtinId(builtin),
          name(std::move(fn_name))
    {
    }
    size_t
    heapBytes() const override
    {
        return sizeof(W_NativeFunc) + name.size();
    }
    uint32_t builtinId;
    std::string name;
};

class W_BoundMethod : public W_Object
{
  public:
    W_BoundMethod(W_Object *s, W_Object *fn)
        : W_Object(kTypeBoundMethod), self(s), func(fn)
    {
    }
    void traceRefs(gc::GcVisitor &v) override;
    jit::RtVal rtGetField(uint32_t idx) const override;
    void rtSetField(uint32_t idx, const jit::RtVal &v,
                    gc::Heap &heap) override;

    W_Object *self;
    W_Object *func;
};

// --------------------------------------------------------------- instances

class W_Class;

/** Shape of a set of attribute names (PyPy map / V8 hidden class). */
class W_Map : public W_Object
{
  public:
    W_Map() : W_Object(kTypeMap) {}
    void traceRefs(gc::GcVisitor &v) override;
    size_t heapBytes() const override;

    /** Attribute slot index or -1. */
    int32_t indexOf(W_Str *name) const;
    /** Map after adding @p name (cached transition). */
    W_Map *withAttr(W_Str *name, gc::Heap &heap);

    std::vector<W_Str *> attrNames; ///< slot order
    std::unordered_map<W_Str *, W_Map *> transitions;
    /** Class whose instances use this map family (for deopt rebuild). */
    W_Class *ownerClass = nullptr;
};

class W_Class : public W_Object
{
  public:
    explicit W_Class(std::string class_name)
        : W_Object(kTypeClass), name(std::move(class_name))
    {
    }
    void traceRefs(gc::GcVisitor &v) override;
    size_t heapBytes() const override;

    /** Method lookup through the MRO (single inheritance). */
    W_Object *findMethod(W_Str *name) const;

    std::string name;
    W_Class *base = nullptr;
    rt::ROrderedDict<W_Object *, W_Object *, WKeyTraits> methods;
    /** Version for JIT method-lookup folding. */
    uint64_t version = 0;
    /** Root map for fresh instances of this class. */
    W_Map *instanceMap = nullptr;
};

class W_Instance : public W_Object
{
  public:
    explicit W_Instance(W_Class *c, W_Map *m)
        : W_Object(kTypeInstance), cls(c), map(m)
    {
    }
    void traceRefs(gc::GcVisitor &v) override;
    size_t
    heapBytes() const override
    {
        return sizeof(W_Instance) + storage.size() * 8;
    }
    jit::RtVal rtGetField(uint32_t idx) const override;
    void rtSetField(uint32_t idx, const jit::RtVal &v,
                    gc::Heap &heap) override;
    jit::RtVal rtGetItem(int64_t idx) const override;
    void rtSetItem(int64_t idx, const jit::RtVal &v,
                   gc::Heap &heap) override;

    W_Class *cls;
    W_Map *map;
    std::vector<W_Object *> storage;
};

// --------------------------------------------------------------- iteration

class W_Cell : public W_Object
{
  public:
    explicit W_Cell(W_Object *v = nullptr) : W_Object(kTypeCell), value(v)
    {
    }
    void traceRefs(gc::GcVisitor &v) override;
    jit::RtVal rtGetField(uint32_t idx) const override;
    void rtSetField(uint32_t idx, const jit::RtVal &v,
                    gc::Heap &heap) override;
    W_Object *value;
};

class W_Range : public W_Object
{
  public:
    W_Range(int64_t b, int64_t e, int64_t s)
        : W_Object(kTypeRange), begin(b), end(e), step(s)
    {
    }
    jit::RtVal rtGetField(uint32_t idx) const override;
    void rtSetField(uint32_t idx, const jit::RtVal &v,
                    gc::Heap &heap) override;
    int64_t rtLen() const override;
    int64_t begin, end, step;
};

class W_RangeIter : public W_Object
{
  public:
    W_RangeIter(int64_t c, int64_t e, int64_t s)
        : W_Object(kTypeRangeIter), cur(c), stop(e), step(s)
    {
    }
    jit::RtVal rtGetField(uint32_t idx) const override;
    void rtSetField(uint32_t idx, const jit::RtVal &v,
                    gc::Heap &heap) override;
    int64_t cur, stop, step;
};

class W_ListIter : public W_Object
{
  public:
    explicit W_ListIter(W_Object *target) : W_Object(kTypeListIter),
                                             list(target)
    {
    }
    void traceRefs(gc::GcVisitor &v) override;
    jit::RtVal rtGetField(uint32_t idx) const override;
    void rtSetField(uint32_t idx, const jit::RtVal &v,
                    gc::Heap &heap) override;
    int64_t index = 0;
    W_Object *list;
};

class W_TupleIter : public W_Object
{
  public:
    explicit W_TupleIter(W_Tuple *target) : W_Object(kTypeTupleIter),
                                             tuple(target)
    {
    }
    void traceRefs(gc::GcVisitor &v) override;
    jit::RtVal rtGetField(uint32_t idx) const override;
    void rtSetField(uint32_t idx, const jit::RtVal &v,
                    gc::Heap &heap) override;
    int64_t index = 0;
    W_Tuple *tuple;
};

class W_StrIter : public W_Object
{
  public:
    explicit W_StrIter(W_Str *target) : W_Object(kTypeStrIter), str(target)
    {
    }
    void traceRefs(gc::GcVisitor &v) override;
    jit::RtVal rtGetField(uint32_t idx) const override;
    void rtSetField(uint32_t idx, const jit::RtVal &v,
                    gc::Heap &heap) override;
    int64_t index = 0;
    W_Str *str;
};

/** Iterates dict keys (or set elements) in insertion order. */
class W_DictIter : public W_Object
{
  public:
    enum class Kind : uint8_t { Keys, Values, Items };
    W_DictIter(W_Object *target, Kind k)
        : W_Object(kTypeDictIter), dict(target), kind(k)
    {
    }
    void traceRefs(gc::GcVisitor &v) override;
    int64_t index = 0;
    W_Object *dict; ///< W_Dict or W_Set
    Kind kind;
};

// --------------------------------------------------------------- scheme

class W_Pair : public W_Object
{
  public:
    W_Pair(W_Object *a, W_Object *d) : W_Object(kTypePair), car(a), cdr(d)
    {
    }
    void traceRefs(gc::GcVisitor &v) override;
    jit::RtVal rtGetField(uint32_t idx) const override;
    void rtSetField(uint32_t idx, const jit::RtVal &v,
                    gc::Heap &heap) override;
    W_Object *car;
    W_Object *cdr;
};

class W_Closure : public W_Object
{
  public:
    W_Closure(void *lambda_node, W_Object *environment)
        : W_Object(kTypeClosure), lambda(lambda_node), env(environment)
    {
    }
    void traceRefs(gc::GcVisitor &v) override;
    void *lambda;  ///< language-layer AST node
    W_Object *env; ///< environment chain (language-defined)
};

} // namespace obj
} // namespace xlvm

#endif // XLVM_OBJ_WOBJECT_H
