#include "sim/branch_pred.h"

#include <algorithm>

#include "common/logging.h"

namespace xlvm {
namespace sim {

namespace {

/** Cheap 64->32 mixing for table indices. */
inline uint32_t
mix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 29;
    return static_cast<uint32_t>(x);
}

} // namespace

GsharePredictor::GsharePredictor(const BranchPredParams &p)
    : pht(1u << p.gshareBits, 1), // weakly not-taken
      indexMask((1u << p.gshareBits) - 1),
      historyMask((1u << p.historyBits) - 1)
{
}

bool
GsharePredictor::predictAndUpdate(uint64_t pc, bool taken)
{
    uint32_t idx = (mix(pc >> 2) ^ ghr) & indexMask;
    uint8_t &ctr = pht[idx];
    bool pred = ctr >= 2;
    if (taken && ctr < 3)
        ++ctr;
    else if (!taken && ctr > 0)
        --ctr;
    ghr = ((ghr << 1) | (taken ? 1 : 0)) & historyMask;
    return pred == taken;
}

void
GsharePredictor::reset()
{
    std::fill(pht.begin(), pht.end(), uint8_t(1)); // weakly not-taken
    ghr = 0;
}

IndirectPredictor::IndirectPredictor(const BranchPredParams &p)
    : table(p.btbEntries),
      indexMask(p.btbEntries - 1),
      tagMask((1u << p.btbTagBits) - 1),
      useHistory(p.useHistoryForBtb)
{
    XLVM_ASSERT((p.btbEntries & (p.btbEntries - 1)) == 0,
                "btbEntries must be a power of two");
}

bool
IndirectPredictor::predictAndUpdate(uint64_t pc, uint64_t target,
                                    uint32_t history)
{
    uint32_t h = useHistory ? (history ^ pathHistory) : 0;
    uint32_t idx = (mix(pc >> 2) ^ (h * 0x9e3779b1u)) & indexMask;
    uint32_t tag = (mix(pc) >> 7) & tagMask;
    Entry &e = table[idx];
    bool correct = e.valid && e.tag == tag && e.target == target;
    e.valid = true;
    e.tag = tag;
    e.target = target;
    pathHistory = (pathHistory << 5) ^ (mix(target) & 0x7fffu);
    return correct;
}

void
IndirectPredictor::reset()
{
    std::fill(table.begin(), table.end(), Entry());
    pathHistory = 0;
}

ReturnStack::ReturnStack(const BranchPredParams &p)
    : stack(p.rasDepth, 0), depth(p.rasDepth)
{
}

void
ReturnStack::pushCall(uint64_t return_pc)
{
    if (top < depth) {
        stack[top++] = return_pc;
    } else {
        // Overflow: shift (rarely hit; depth is generous).
        for (size_t i = 1; i < depth; ++i)
            stack[i - 1] = stack[i];
        stack[depth - 1] = return_pc;
    }
}

bool
ReturnStack::predictReturn(uint64_t actual_return_pc)
{
    if (top == 0)
        return false;
    return stack[--top] == actual_return_pc;
}

BranchUnit::BranchUnit(const BranchPredParams &p)
    : gshare(p), indirect(p), ras(p)
{
}

void
BranchUnit::reset()
{
    gshare.reset();
    indirect.reset();
    ras.reset();
}

bool
BranchUnit::process(const Inst &inst)
{
    switch (inst.cls) {
      case InstClass::Branch:
        return !gshare.predictAndUpdate(inst.pc, inst.taken);
      case InstClass::Jump:
        return false; // direct, always predicted once decoded
      case InstClass::IndirectJump:
        return !indirect.predictAndUpdate(inst.pc, inst.target,
                                          gshare.history());
      case InstClass::Call:
        ras.pushCall(inst.pc + 4);
        return false;
      case InstClass::IndirectCall:
        ras.pushCall(inst.pc + 4);
        return !indirect.predictAndUpdate(inst.pc, inst.target,
                                          gshare.history());
      case InstClass::Ret:
        // Inst::target carries the actual return address.
        return !ras.predictReturn(inst.target);
      default:
        return false;
    }
}

} // namespace sim
} // namespace xlvm
