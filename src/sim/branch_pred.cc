#include "sim/branch_pred.h"

#include <algorithm>

#include "common/logging.h"

namespace xlvm {
namespace sim {

GsharePredictor::GsharePredictor(const BranchPredParams &p)
    : pht(1u << p.gshareBits, 1), // weakly not-taken
      indexMask((1u << p.gshareBits) - 1),
      historyMask((1u << p.historyBits) - 1)
{
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
    uint32_t idx = (predictorMix(pc >> 2) ^ (h * 0x9e3779b1u)) & indexMask;
    uint32_t tag = (predictorMix(pc) >> 7) & tagMask;
    Entry &e = table[idx];
    bool correct = e.valid && e.tag == tag && e.target == target;
    e.valid = true;
    e.tag = tag;
    e.target = target;
    pathHistory = (pathHistory << 5) ^ (predictorMix(target) & 0x7fffu);
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

} // namespace sim
} // namespace xlvm
