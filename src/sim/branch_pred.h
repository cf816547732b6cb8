/**
 * @file
 * Branch prediction models.
 *
 * Conditional branches use a gshare predictor; indirect jumps/calls use a
 * tagged BTB indexed with history; returns use a return-address stack.
 * sim::Core owns one of each and routes every control instruction to its
 * predictor from the instruction's own typed entry point.
 * Interpreter dispatch loops emit genuine IndirectJump instructions whose
 * targets are the real handler PCs, so dispatch (un)predictability is an
 * emergent property of the bytecode stream, as in the paper's discussion
 * of Rohou et al. [34].
 */

#ifndef XLVM_SIM_BRANCH_PRED_H
#define XLVM_SIM_BRANCH_PRED_H

#include <cstddef>
#include <cstdint>
#include <vector>


namespace xlvm {
namespace sim {

/** Configuration for the combined predictor. */
struct BranchPredParams
{
    uint32_t gshareBits = 14;     ///< log2 of PHT entries
    uint32_t historyBits = 12;    ///< global history length
    uint32_t btbEntries = 4096;   ///< indirect-target buffer entries
    uint32_t btbTagBits = 10;     ///< partial tags in the BTB
    uint32_t rasDepth = 32;       ///< return-address stack depth
    bool useHistoryForBtb = true; ///< hash history into BTB index
};

/** Cheap 64->32 mixing for table indices. */
inline uint32_t
predictorMix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 29;
    return static_cast<uint32_t>(x);
}

/** gshare conditional-branch predictor. */
class GsharePredictor
{
  public:
    explicit GsharePredictor(const BranchPredParams &p);

    /** Predict + update; returns true if the prediction was correct. */
    bool
    predictAndUpdate(uint64_t pc, bool taken)
    {
        uint32_t idx = (predictorMix(pc >> 2) ^ ghr) & indexMask;
        uint8_t &ctr = pht[idx];
        bool pred = ctr >= 2;
        if (taken && ctr < 3)
            ++ctr;
        else if (!taken && ctr > 0)
            --ctr;
        ghr = ((ghr << 1) | (taken ? 1 : 0)) & historyMask;
        return pred == taken;
    }

    uint32_t history() const { return ghr; }

    /** Restore the freshly constructed state (counters and history). */
    void reset();

  private:
    std::vector<uint8_t> pht; ///< 2-bit saturating counters
    uint32_t indexMask;
    uint32_t historyMask;
    uint32_t ghr = 0;
};

/** History-hashed, partially tagged indirect-target buffer. */
class IndirectPredictor
{
  public:
    explicit IndirectPredictor(const BranchPredParams &p);

    /**
     * Predict + update for an indirect jump/call.
     * @param pc       branch address
     * @param target   actual target
     * @param history  conditional-branch global history (for hashing)
     * @return true if the predicted target matched.
     */
    bool predictAndUpdate(uint64_t pc, uint64_t target, uint32_t history);

    /** Invalidate the table and clear the path history. */
    void reset();

  private:
    struct Entry
    {
        uint32_t tag = 0;
        uint64_t target = 0;
        bool valid = false;
    };

    std::vector<Entry> table;
    uint32_t indexMask;
    uint32_t tagMask;
    bool useHistory;
    /**
     * Path history of recent indirect targets; hashing it into the index
     * lets the table learn repeating dispatch sequences (this is the
     * essence of ITTAGE-style correlation and why regular bytecode
     * streams predict well, per Rohou et al.).
     */
    uint32_t pathHistory = 0;
};

/** Return-address stack. */
class ReturnStack
{
  public:
    explicit ReturnStack(const BranchPredParams &p);

    void pushCall(uint64_t return_pc);

    /** Predict + pop for a return; true if prediction correct. */
    bool predictReturn(uint64_t actual_return_pc);

    void reset() { top = 0; }

  private:
    std::vector<uint64_t> stack;
    size_t top = 0;   ///< number of valid entries (clamped to depth)
    size_t depth;
};

} // namespace sim
} // namespace xlvm

#endif // XLVM_SIM_BRANCH_PRED_H
