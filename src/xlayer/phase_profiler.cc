#include "xlayer/phase_profiler.h"

#include "common/logging.h"

namespace xlvm {
namespace xlayer {

PhaseProfiler::PhaseProfiler(sim::Core &core, uint64_t bin_instrs)
    : core_(core), binInstrs(bin_instrs)
{
    stack.push_back(Phase::Interpreter);
    core_.setBucket(0);
    if (binInstrs) {
        nextBinEnd = binInstrs;
        binStartCycles = cyclesNow();
    }
}

std::array<double, kNumPhases>
PhaseProfiler::cyclesNow() const
{
    std::array<double, kNumPhases> c{};
    for (uint32_t p = 0; p < kNumPhases; ++p)
        c[p] = core_.bucketCounters(p).cycles();
    return c;
}

void
PhaseProfiler::closeBins()
{
    uint64_t instr = core_.totalInstructions();
    while (instr >= nextBinEnd) {
        auto now = cyclesNow();
        PhaseTimelineBin bin;
        bin.instrEnd = nextBinEnd;
        for (uint32_t p = 0; p < kNumPhases; ++p)
            bin.cycles[p] = now[p] - binStartCycles[p];
        bins.push_back(bin);
        binStartCycles = now;
        nextBinEnd += binInstrs;
    }
}

void
PhaseProfiler::enter(uint32_t phase)
{
    XLVM_ASSERT(phase < kNumPhases, "bad phase payload");
    stack.push_back(static_cast<Phase>(phase));
    core_.setBucket(phase);
}

void
PhaseProfiler::exit(uint32_t phase)
{
    if (stack.size() <= 1) {
        // A kPhaseExit with nothing but the Interpreter sentinel on the
        // stack is a malformed event stream (e.g. an exit emitted
        // twice). Popping the sentinel would leave currentPhase()
        // reading an empty stack, so reject the event: count it, warn
        // once, and keep the sentinel.
        ++underflows_;
        if (underflows_ == 1) {
            XLVM_WARN("phase exit (", phaseName(Phase(phase)),
                      ") on bottomed-out phase stack; ignored");
        }
        return;
    }
    XLVM_ASSERT(static_cast<uint32_t>(stack.back()) == phase,
                "mismatched phase exit: in ", phaseName(stack.back()),
                " exiting ", phaseName(static_cast<Phase>(phase)));
    stack.pop_back();
    core_.setBucket(static_cast<uint32_t>(stack.back()));
}

Phase
PhaseProfiler::currentPhase() const
{
    return stack.back();
}

std::array<double, kNumPhases>
PhaseProfiler::phaseCycleShares() const
{
    std::array<double, kNumPhases> shares{};
    double total = 0.0;
    for (uint32_t p = 0; p < kNumPhases; ++p) {
        shares[p] = core_.bucketCounters(p).cycles();
        total += shares[p];
    }
    if (total > 0) {
        for (auto &s : shares)
            s /= total;
    }
    return shares;
}

} // namespace xlayer
} // namespace xlvm
