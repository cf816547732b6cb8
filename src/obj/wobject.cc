#include "obj/wobject.h"

#include "common/logging.h"
#include "rt/rstr.h"

namespace xlvm {
namespace obj {

using jit::RtVal;

const char *
typeName(uint16_t type_id)
{
    switch (type_id) {
      case kTypeNone: return "NoneType";
      case kTypeBool: return "bool";
      case kTypeInt: return "int";
      case kTypeBigInt: return "long";
      case kTypeFloat: return "float";
      case kTypeStr: return "str";
      case kTypeTuple: return "tuple";
      case kTypeList: return "list";
      case kTypeDict: return "dict";
      case kTypeSet: return "set";
      case kTypeFunc: return "function";
      case kTypeNativeFunc: return "builtin";
      case kTypeBoundMethod: return "method";
      case kTypeClass: return "type";
      case kTypeInstance: return "object";
      case kTypeMap: return "map";
      case kTypeCell: return "cell";
      case kTypeRange: return "range";
      case kTypeListIter: return "list_iterator";
      case kTypeRangeIter: return "range_iterator";
      case kTypeDictIter: return "dict_iterator";
      case kTypeStrIter: return "str_iterator";
      case kTypeTupleIter: return "tuple_iterator";
      case kTypeSetIter: return "set_iterator";
      case kTypePair: return "pair";
      case kTypeSymbol: return "symbol";
      case kTypeChar: return "char";
      case kTypeClosure: return "closure";
      default: return "?";
    }
}

// ------------------------------------------------------------- W_Object

RtVal
W_Object::rtGetField(uint32_t idx) const
{
    XLVM_PANIC("rtGetField(", idx, ") unsupported on ",
               typeName(typeId()));
}

void
W_Object::rtSetField(uint32_t idx, const RtVal &, gc::Heap &)
{
    XLVM_PANIC("rtSetField(", idx, ") unsupported on ",
               typeName(typeId()));
}

RtVal
W_Object::rtGetItem(int64_t idx) const
{
    XLVM_PANIC("rtGetItem(", idx, ") unsupported on ",
               typeName(typeId()));
}

void
W_Object::rtSetItem(int64_t idx, const RtVal &, gc::Heap &)
{
    XLVM_PANIC("rtSetItem(", idx, ") unsupported on ",
               typeName(typeId()));
}

int64_t
W_Object::rtLen() const
{
    XLVM_PANIC("rtLen unsupported on ", typeName(typeId()));
}

// ------------------------------------------------------------- atoms

RtVal
W_Bool::rtGetField(uint32_t idx) const
{
    XLVM_ASSERT(idx == kFieldValue, "bad W_Bool field");
    return RtVal::fromInt(value);
}

void
W_Bool::rtSetField(uint32_t idx, const RtVal &v, gc::Heap &)
{
    XLVM_ASSERT(idx == kFieldValue, "bad W_Bool field");
    value = v.i;
}

RtVal
W_Int::rtGetField(uint32_t idx) const
{
    XLVM_ASSERT(idx == kFieldValue, "bad W_Int field");
    return RtVal::fromInt(value);
}

void
W_Int::rtSetField(uint32_t idx, const RtVal &v, gc::Heap &)
{
    XLVM_ASSERT(idx == kFieldValue, "bad W_Int field");
    value = v.i;
}

RtVal
W_Float::rtGetField(uint32_t idx) const
{
    XLVM_ASSERT(idx == kFieldValue, "bad W_Float field");
    return RtVal::fromFloat(value);
}

void
W_Float::rtSetField(uint32_t idx, const RtVal &v, gc::Heap &)
{
    XLVM_ASSERT(idx == kFieldValue, "bad W_Float field");
    value = v.f;
}

RtVal
W_Str::rtGetItem(int64_t idx) const
{
    XLVM_ASSERT(idx >= 0 && size_t(idx) < value.size(),
                "str index out of range");
    return RtVal::fromInt(uint8_t(value[idx]));
}

uint64_t
W_Str::hash() const
{
    if (cachedHash == 0) {
        uint64_t cost;
        cachedHash = rt::strHash(value, &cost);
    }
    return cachedHash;
}

RtVal
W_Char::rtGetField(uint32_t idx) const
{
    XLVM_ASSERT(idx == kFieldValue, "bad W_Char field");
    return RtVal::fromInt(uint8_t(value));
}

// ------------------------------------------------------------- tuple

void
W_Tuple::traceRefs(gc::GcVisitor &v)
{
    for (W_Object *o : items)
        v.visit(o);
}

RtVal
W_Tuple::rtGetItem(int64_t idx) const
{
    XLVM_ASSERT(idx >= 0 && size_t(idx) < items.size(),
                "tuple index out of range");
    return RtVal::fromRef(items[idx]);
}

// ------------------------------------------------------------- list

void
W_List::traceRefs(gc::GcVisitor &v)
{
    for (W_Object *o : objs)
        v.visit(o);
}

size_t
W_List::heapBytes() const
{
    return sizeof(W_List) + ints.capacity() * 8 +
           floats.capacity() * 8 + objs.capacity() * 8;
}

RtVal
W_List::rtGetField(uint32_t idx) const
{
    switch (idx) {
      case kFieldStrategy:
        return RtVal::fromInt(int64_t(strategy));
      case kFieldLength:
        return RtVal::fromInt(int64_t(length()));
      default:
        XLVM_PANIC("bad W_List field ", idx);
    }
}

int64_t
W_List::rtLen() const
{
    return int64_t(length());
}

RtVal
W_List::rtGetItem(int64_t idx) const
{
    XLVM_ASSERT(idx >= 0 && size_t(idx) < length(),
                "list index out of range");
    switch (strategy) {
      case ListStrategy::Int:
        return RtVal::fromInt(ints[idx]);
      case ListStrategy::Float:
        return RtVal::fromFloat(floats[idx]);
      case ListStrategy::Object:
        return RtVal::fromRef(objs[idx]);
      default:
        XLVM_PANIC("getitem on empty-strategy list");
    }
}

void
W_List::rtSetItem(int64_t idx, const RtVal &v, gc::Heap &heap)
{
    XLVM_ASSERT(idx >= 0 && size_t(idx) < length(),
                "list index out of range");
    switch (strategy) {
      case ListStrategy::Int:
        ints[idx] = v.i;
        break;
      case ListStrategy::Float:
        floats[idx] = v.f;
        break;
      case ListStrategy::Object:
        objs[idx] = static_cast<W_Object *>(v.r);
        heap.writeBarrier(this);
        break;
      default:
        XLVM_PANIC("setitem on empty-strategy list");
    }
}

// ------------------------------------------------------------- hashing

uint64_t
objHash(const W_Object *o)
{
    switch (o->typeId()) {
      case kTypeInt:
        return uint64_t(static_cast<const W_Int *>(o)->value) *
               0x9e3779b97f4a7c15ull;
      case kTypeBool:
        return static_cast<const W_Bool *>(o)->value ? 0x517cc1b7ull
                                                     : 0x27220a95ull;
      case kTypeNone:
        return 0xdeadcafeull;
      case kTypeFloat: {
        double d = static_cast<const W_Float *>(o)->value;
        // Integral floats hash like their int (Python invariant).
        int64_t i = int64_t(d);
        if (double(i) == d)
            return uint64_t(i) * 0x9e3779b97f4a7c15ull;
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d));
        __builtin_memcpy(&bits, &d, sizeof(bits));
        return bits * 0xff51afd7ed558ccdull;
      }
      case kTypeStr:
        return static_cast<const W_Str *>(o)->hash();
      case kTypeChar:
        return 0x100 + uint8_t(static_cast<const W_Char *>(o)->value);
      case kTypeSymbol: {
        uint64_t cost;
        return rt::strHash(static_cast<const W_Symbol *>(o)->name, &cost) ^
               0x5ull;
      }
      case kTypeTuple: {
        uint64_t h = 0x345678;
        for (W_Object *it : static_cast<const W_Tuple *>(o)->items)
            h = h * 1000003 ^ objHash(it);
        return h ? h : 1;
      }
      default:
        // Identity hash: the heap allocation ordinal, not the host
        // address, so probe sequences are reproducible across runs.
        return o->allocId() * 0x9e3779b97f4a7c15ull;
    }
}

bool
objEq(const W_Object *a, const W_Object *b)
{
    if (a == b)
        return true;
    if (a->typeId() != b->typeId()) {
        // int/float cross-type equality
        if (a->typeId() == kTypeInt && b->typeId() == kTypeFloat) {
            return double(static_cast<const W_Int *>(a)->value) ==
                   static_cast<const W_Float *>(b)->value;
        }
        if (a->typeId() == kTypeFloat && b->typeId() == kTypeInt) {
            return objEq(b, a);
        }
        return false;
    }
    switch (a->typeId()) {
      case kTypeInt:
        return static_cast<const W_Int *>(a)->value ==
               static_cast<const W_Int *>(b)->value;
      case kTypeBool:
        return static_cast<const W_Bool *>(a)->value ==
               static_cast<const W_Bool *>(b)->value;
      case kTypeNone:
        return true;
      case kTypeFloat:
        return static_cast<const W_Float *>(a)->value ==
               static_cast<const W_Float *>(b)->value;
      case kTypeStr:
        return static_cast<const W_Str *>(a)->value ==
               static_cast<const W_Str *>(b)->value;
      case kTypeChar:
        return static_cast<const W_Char *>(a)->value ==
               static_cast<const W_Char *>(b)->value;
      case kTypeSymbol:
        return static_cast<const W_Symbol *>(a)->name ==
               static_cast<const W_Symbol *>(b)->name;
      case kTypeTuple: {
        const auto *ta = static_cast<const W_Tuple *>(a);
        const auto *tb = static_cast<const W_Tuple *>(b);
        if (ta->items.size() != tb->items.size())
            return false;
        for (size_t i = 0; i < ta->items.size(); ++i) {
            if (!objEq(ta->items[i], tb->items[i]))
                return false;
        }
        return true;
      }
      default:
        return false;
    }
}

// ------------------------------------------------------------- dict/set

void
W_Dict::traceRefs(gc::GcVisitor &v)
{
    for (auto &e : table.rawEntriesMut()) {
        if (e.live) {
            v.visit(e.key);
            v.visit(e.value);
        }
    }
}

size_t
W_Dict::heapBytes() const
{
    return sizeof(W_Dict) + table.rawEntries().capacity() * 32 +
           table.slotCount() * 4;
}

RtVal
W_Dict::rtGetField(uint32_t idx) const
{
    XLVM_ASSERT(idx == kFieldDictVersion, "bad W_Dict field ", idx);
    return RtVal::fromInt(int64_t(table.version()));
}

void
W_Set::traceRefs(gc::GcVisitor &v)
{
    for (auto &e : table.rawEntriesMut()) {
        if (e.live)
            v.visit(e.key);
    }
}

size_t
W_Set::heapBytes() const
{
    return sizeof(W_Set) + table.rawEntries().capacity() * 32 +
           table.slotCount() * 4;
}

RtVal
W_Set::rtGetField(uint32_t idx) const
{
    if (idx == kFieldStrategy)
        return RtVal::fromInt(int64_t(strategy));
    XLVM_ASSERT(idx == kFieldDictVersion, "bad W_Set field ", idx);
    return RtVal::fromInt(int64_t(table.version()));
}

// ------------------------------------------------------------- callables

void
W_Func::traceRefs(gc::GcVisitor &v)
{
    v.visit(globals);
    for (W_Object *d : defaults)
        v.visit(d);
}

void
W_BoundMethod::traceRefs(gc::GcVisitor &v)
{
    v.visit(self);
    v.visit(func);
}

RtVal
W_BoundMethod::rtGetField(uint32_t idx) const
{
    switch (idx) {
      case kFieldBoundSelf:
        return RtVal::fromRef(self);
      case kFieldBoundFunc:
        return RtVal::fromRef(func);
      default:
        XLVM_PANIC("bad W_BoundMethod field ", idx);
    }
}

void
W_BoundMethod::rtSetField(uint32_t idx, const RtVal &v, gc::Heap &heap)
{
    switch (idx) {
      case kFieldBoundSelf:
        self = static_cast<W_Object *>(v.r);
        break;
      case kFieldBoundFunc:
        func = static_cast<W_Object *>(v.r);
        break;
      default:
        XLVM_PANIC("bad W_BoundMethod field ", idx);
    }
    heap.writeBarrier(this);
}

// ------------------------------------------------------------- maps

void
W_Map::traceRefs(gc::GcVisitor &v)
{
    for (W_Str *s : attrNames)
        v.visit(s);
    for (auto &[k, m] : transitions) {
        v.visit(k);
        v.visit(m);
    }
    v.visit(ownerClass);
}

size_t
W_Map::heapBytes() const
{
    return sizeof(W_Map) + attrNames.size() * 8 + transitions.size() * 32;
}

int32_t
W_Map::indexOf(W_Str *name) const
{
    for (size_t i = 0; i < attrNames.size(); ++i) {
        if (attrNames[i] == name ||
            attrNames[i]->value == name->value) {
            return int32_t(i);
        }
    }
    return -1;
}

W_Map *
W_Map::withAttr(W_Str *name, gc::Heap &heap)
{
    auto it = transitions.find(name);
    if (it != transitions.end())
        return it->second;
    W_Map *next = heap.alloc<W_Map>();
    next->attrNames = attrNames;
    next->attrNames.push_back(name);
    next->ownerClass = ownerClass;
    transitions[name] = next;
    heap.writeBarrier(this);
    return next;
}

// ------------------------------------------------------------- class/inst

void
W_Class::traceRefs(gc::GcVisitor &v)
{
    v.visit(base);
    v.visit(instanceMap);
    for (auto &e : methods.rawEntriesMut()) {
        if (e.live) {
            v.visit(e.key);
            v.visit(e.value);
        }
    }
}

size_t
W_Class::heapBytes() const
{
    return sizeof(W_Class) + methods.rawEntries().capacity() * 32;
}

W_Object *
W_Class::findMethod(W_Str *name) const
{
    const W_Class *c = this;
    while (c) {
        auto *v = c->methods.get(const_cast<W_Str *>(name), name->hash());
        if (v)
            return *v;
        c = c->base;
    }
    return nullptr;
}

void
W_Instance::traceRefs(gc::GcVisitor &v)
{
    v.visit(cls);
    v.visit(map);
    for (W_Object *o : storage)
        v.visit(o);
}

RtVal
W_Instance::rtGetField(uint32_t idx) const
{
    XLVM_ASSERT(idx == kFieldMap, "bad W_Instance field ", idx);
    return RtVal::fromRef(map);
}

void
W_Instance::rtSetField(uint32_t idx, const RtVal &v, gc::Heap &heap)
{
    XLVM_ASSERT(idx == kFieldMap, "bad W_Instance field ", idx);
    map = static_cast<W_Map *>(v.r);
    // The map family carries the class, so instances rebuilt by the
    // blackhole recover their class from the map.
    if (map && map->ownerClass)
        cls = map->ownerClass;
    heap.writeBarrier(this);
}

RtVal
W_Instance::rtGetItem(int64_t idx) const
{
    XLVM_ASSERT(idx >= 0 && size_t(idx) < storage.size(),
                "instance slot out of range");
    return RtVal::fromRef(storage[idx]);
}

void
W_Instance::rtSetItem(int64_t idx, const RtVal &v, gc::Heap &heap)
{
    XLVM_ASSERT(idx >= 0 && size_t(idx) <= storage.size(),
                "instance slot out of range");
    if (size_t(idx) == storage.size())
        storage.push_back(static_cast<W_Object *>(v.r));
    else
        storage[idx] = static_cast<W_Object *>(v.r);
    heap.writeBarrier(this);
}

// ------------------------------------------------------------- iterators

void
W_Cell::traceRefs(gc::GcVisitor &v)
{
    v.visit(value);
}

RtVal
W_Cell::rtGetField(uint32_t idx) const
{
    XLVM_ASSERT(idx == kFieldValue, "bad W_Cell field");
    return RtVal::fromRef(value);
}

void
W_Cell::rtSetField(uint32_t idx, const RtVal &v, gc::Heap &heap)
{
    XLVM_ASSERT(idx == kFieldValue, "bad W_Cell field");
    value = static_cast<W_Object *>(v.r);
    heap.writeBarrier(this);
}

RtVal
W_Range::rtGetField(uint32_t idx) const
{
    switch (idx) {
      case kFieldRangeCur:
        return RtVal::fromInt(begin);
      case kFieldRangeStop:
        return RtVal::fromInt(end);
      case kFieldRangeStep:
        return RtVal::fromInt(step);
      default:
        XLVM_PANIC("bad W_Range field ", idx);
    }
}

void
W_Range::rtSetField(uint32_t idx, const RtVal &v, gc::Heap &)
{
    switch (idx) {
      case kFieldRangeCur:
        begin = v.i;
        return;
      case kFieldRangeStop:
        end = v.i;
        return;
      case kFieldRangeStep:
        step = v.i;
        return;
      default:
        XLVM_PANIC("bad W_Range field ", idx);
    }
}

int64_t
W_Range::rtLen() const
{
    if (step > 0)
        return end > begin ? (end - begin + step - 1) / step : 0;
    return begin > end ? (begin - end - step - 1) / (-step) : 0;
}

RtVal
W_RangeIter::rtGetField(uint32_t idx) const
{
    switch (idx) {
      case kFieldRangeCur:
        return RtVal::fromInt(cur);
      case kFieldRangeStop:
        return RtVal::fromInt(stop);
      case kFieldRangeStep:
        return RtVal::fromInt(step);
      default:
        XLVM_PANIC("bad W_RangeIter field ", idx);
    }
}

void
W_RangeIter::rtSetField(uint32_t idx, const RtVal &v, gc::Heap &)
{
    switch (idx) {
      case kFieldRangeCur:
        cur = v.i;
        return;
      case kFieldRangeStop:
        stop = v.i;
        return;
      case kFieldRangeStep:
        step = v.i;
        return;
      default:
        XLVM_PANIC("bad W_RangeIter field ", idx);
    }
}

void
W_ListIter::traceRefs(gc::GcVisitor &v)
{
    v.visit(list);
}

RtVal
W_ListIter::rtGetField(uint32_t idx) const
{
    switch (idx) {
      case kFieldIterIndex:
        return RtVal::fromInt(index);
      case kFieldIterTarget:
        return RtVal::fromRef(list);
      default:
        XLVM_PANIC("bad W_ListIter field ", idx);
    }
}

void
W_ListIter::rtSetField(uint32_t idx, const RtVal &v, gc::Heap &heap)
{
    if (idx == kFieldIterIndex) {
        index = v.i;
    } else {
        XLVM_ASSERT(idx == kFieldIterTarget, "bad W_ListIter field");
        list = static_cast<W_Object *>(v.r);
        heap.writeBarrier(this);
    }
}

void
W_TupleIter::traceRefs(gc::GcVisitor &v)
{
    v.visit(tuple);
}

RtVal
W_TupleIter::rtGetField(uint32_t idx) const
{
    switch (idx) {
      case kFieldIterIndex:
        return RtVal::fromInt(index);
      case kFieldIterTarget:
        return RtVal::fromRef(tuple);
      default:
        XLVM_PANIC("bad W_TupleIter field ", idx);
    }
}

void
W_TupleIter::rtSetField(uint32_t idx, const RtVal &v, gc::Heap &heap)
{
    if (idx == kFieldIterIndex) {
        index = v.i;
    } else {
        XLVM_ASSERT(idx == kFieldIterTarget, "bad W_TupleIter field");
        tuple = static_cast<W_Tuple *>(v.r);
        heap.writeBarrier(this);
    }
}

void
W_StrIter::traceRefs(gc::GcVisitor &v)
{
    v.visit(str);
}

RtVal
W_StrIter::rtGetField(uint32_t idx) const
{
    switch (idx) {
      case kFieldIterIndex:
        return RtVal::fromInt(index);
      case kFieldIterTarget:
        return RtVal::fromRef(str);
      default:
        XLVM_PANIC("bad W_StrIter field ", idx);
    }
}

void
W_StrIter::rtSetField(uint32_t idx, const RtVal &v, gc::Heap &heap)
{
    if (idx == kFieldIterIndex) {
        index = v.i;
    } else {
        XLVM_ASSERT(idx == kFieldIterTarget, "bad W_StrIter field");
        str = static_cast<W_Str *>(v.r);
        heap.writeBarrier(this);
    }
}

void
W_DictIter::traceRefs(gc::GcVisitor &v)
{
    v.visit(dict);
}

// ------------------------------------------------------------- scheme

void
W_Pair::traceRefs(gc::GcVisitor &v)
{
    v.visit(car);
    v.visit(cdr);
}

RtVal
W_Pair::rtGetField(uint32_t idx) const
{
    switch (idx) {
      case kFieldCar:
        return RtVal::fromRef(car);
      case kFieldCdr:
        return RtVal::fromRef(cdr);
      default:
        XLVM_PANIC("bad W_Pair field ", idx);
    }
}

void
W_Pair::rtSetField(uint32_t idx, const RtVal &v, gc::Heap &heap)
{
    switch (idx) {
      case kFieldCar:
        car = static_cast<W_Object *>(v.r);
        break;
      case kFieldCdr:
        cdr = static_cast<W_Object *>(v.r);
        break;
      default:
        XLVM_PANIC("bad W_Pair field ", idx);
    }
    heap.writeBarrier(this);
}

void
W_Closure::traceRefs(gc::GcVisitor &v)
{
    v.visit(env);
}

} // namespace obj
} // namespace xlvm
