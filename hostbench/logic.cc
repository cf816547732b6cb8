#include "logic.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"

namespace hostbench {

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

bool
tailPercentile(std::vector<double> samples, Tail *out)
{
    size_t n = samples.size();
    if (n < 2 * kTailBeyond)
        return false;
    std::sort(samples.begin(), samples.end());
    size_t rank = n - kTailBeyond; // 1-based nearest rank
    out->value = samples[rank - 1];
    out->percentile = 100.0 * double(rank) / double(n);
    out->samples = n;
    out->beyond = n - rank;
    return true;
}

uint32_t
SpanRecorder::begin(const std::string &name, uint32_t run)
{
    int32_t parent = open_.empty() ? -1 : int32_t(open_.back());
    int64_t now = nowNs();
    uint32_t id = add(name, parent, run, now, now);
    open_.push_back(id);
    return id;
}

void
SpanRecorder::end()
{
    if (open_.empty())
        return;
    spans_[open_.back()].endNs = nowNs();
    open_.pop_back();
}

uint32_t
SpanRecorder::add(const std::string &name, int32_t parent, uint32_t run,
                  int64_t start_ns, int64_t end_ns)
{
    Span s;
    s.name = name;
    s.id = uint32_t(spans_.size());
    s.parent = parent;
    s.run = run;
    s.startNs = start_ns;
    s.endNs = end_ns;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

std::vector<int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    // Children of each span, clipped to the parent's interval.
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0 || size_t(s.parent) >= spans.size())
            continue;
        const Span &p = spans[size_t(s.parent)];
        int64_t lo = std::max(s.startNs, p.startNs);
        int64_t hi = std::min(s.endNs, p.endNs);
        if (lo < hi)
            kids[size_t(s.parent)].emplace_back(lo, hi);
    }
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0;
        int64_t reach = INT64_MIN;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, reach);
            if (hi > lo)
                covered += hi - lo;
            reach = std::max(reach, hi);
        }
        self[i] = spans[i].durationNs() - covered;
    }
    return self;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name[0]))
        return false;
    for (char c : name) {
        if (!alnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    }
    return true;
}

LayerCounts &
LayerCounts::operator+=(const LayerCounts &o)
{
    instructions += o.instructions;
    cyclesFp += o.cyclesFp;
    annotations += o.annotations;
    cacheAccesses += o.cacheAccesses;
    replayedInstructions += o.replayedInstructions;
    memoHits += o.memoHits;
    memoAttempts += o.memoAttempts;
    sbHits += o.sbHits;
    sbAttempts += o.sbAttempts;
    sbDivergences += o.sbDivergences;
    work += o.work;
    spaceOps += o.spaceOps;
    aotCalls += o.aotCalls;
    compiles += o.compiles;
    tracesAborted += o.tracesAborted;
    irNodesCompiled += o.irNodesCompiled;
    compileInsts += o.compileInsts;
    traceEnters += o.traceEnters;
    deopts += o.deopts;
    gcCollections += o.gcCollections;
    gcAllocations += o.gcAllocations;
    gcFreedObjects += o.gcFreedObjects;
    gcPromotedBytes += o.gcPromotedBytes;
    return *this;
}

std::string
finalLine(const std::string &output)
{
    size_t end = output.find_last_not_of("\r\n");
    if (end == std::string::npos)
        return std::string();
    size_t start = output.find_last_of('\n', end);
    start = start == std::string::npos ? 0 : start + 1;
    return output.substr(start, end + 1 - start);
}

std::string
checkRun(const RunFacts &run, const Expected &want, const LayerCounts *first)
{
    if (!run.error.empty())
        return "threw: " + run.error;
    if (!run.completed)
        return "did not complete";
    if (!want.finalLine.empty()) {
        std::string got = finalLine(run.output);
        if (got != want.finalLine)
            return "final line '" + got + "', want '" + want.finalLine + "'";
    }
    const LayerCounts &c = run.counts;
    if (c.instructions != want.instructions || c.cyclesFp != want.cyclesFp ||
        c.annotations != want.annotations) {
        return "modeled totals moved: instructions " +
               std::to_string(c.instructions) + " cycles_fp " +
               std::to_string(c.cyclesFp) + " annotations " +
               std::to_string(c.annotations) + ", want " +
               std::to_string(want.instructions) + " / " +
               std::to_string(want.cyclesFp) + " / " +
               std::to_string(want.annotations);
    }
    if (first && !(c == *first))
        return "per-layer counts differ from the first repetition";
    return std::string();
}

void
Tally::record(const std::string &reason)
{
    ++attempted;
    if (reason.empty())
        return;
    if (failed++ == 0)
        firstFailure = reason;
}

HostSpeedProbe::HostSpeedProbe() : table_(kTableBytes / sizeof(uint64_t))
{
    for (size_t i = 0; i < table_.size(); ++i)
        table_[i] = i;
}

void
HostSpeedProbe::sweep(int steps)
{
    const uint64_t mask = table_.size() - 1;
    uint64_t *t = table_.data();
    uint64_t a = lanes_[0], b = lanes_[1], c = lanes_[2], d = lanes_[3];
    for (int k = 0; k < steps; ++k) {
        // Four 64-bit LCGs; each step updates one random slot per lane.
        a = a * 6364136223846793005ull + 1;
        b = b * 6364136223846793005ull + 3;
        c = c * 6364136223846793005ull + 5;
        d = d * 6364136223846793005ull + 7;
        t[(a >> 33) & mask] += 1;
        t[(b >> 33) & mask] ^= a;
        t[(c >> 33) & mask] += b;
        t[(d >> 33) & mask] -= c;
    }
    lanes_[0] = a;
    lanes_[1] = b;
    lanes_[2] = c;
    lanes_[3] = d;
}

double
HostSpeedProbe::sampleMs()
{
    sweep(kSteps / 10);
    auto t0 = std::chrono::steady_clock::now();
    sweep(kSteps);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

uint64_t
HostSpeedProbe::checksum() const
{
    uint64_t h = 0;
    for (uint64_t v : table_)
        h = h * 31 + v;
    return h;
}

double
atReferenceSpeed(double hostMs, double probeMs)
{
    return probeMs > 0.0 ? hostMs * kProbeReferenceMs / probeMs : hostMs;
}

std::vector<size_t>
passOrder(size_t n, uint64_t seed, uint64_t pass)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    xlvm::Rng rng(seed * 0x9e3779b97f4a7c15ull + pass);
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBelow(i)]);
    return order;
}

} // namespace hostbench
