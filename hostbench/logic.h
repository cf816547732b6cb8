/**
 * @file
 * The host-time benchmark's own logic, kept free of the VM so it can be
 * unit-tested in isolation: sample statistics (median and the tail
 * percentile rule), span recording and self-time arithmetic, metric-name
 * validation, per-run correctness checks, failure accounting and the
 * host-speed probe that timings are scaled by.
 */

#ifndef XLVM_HOSTBENCH_LOGIC_H
#define XLVM_HOSTBENCH_LOGIC_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

/** Median of @p samples (mean of the middle two for an even count). */
double median(std::vector<double> samples);

/** A tail percentile: the value and where it sits in the sample. */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0; ///< nearest-rank percentile, in (0, 100)
    size_t samples = 0;      ///< sample count the percentile is over
    size_t beyond = 0;       ///< samples strictly above its rank
};

/** The tail percentile keeps at least this many samples beyond it. */
constexpr size_t kTailBeyond = 10;

/**
 * The highest nearest-rank percentile with at least kTailBeyond samples
 * beyond it: of n sorted samples, the value at 1-based rank n - 10,
 * which is percentile 100 * (n - 10) / n. Returns false when n < 20,
 * where that rank would fall below the median.
 */
bool tailPercentile(std::vector<double> samples, Tail *out);

/** One timed interval at a layer boundary. */
struct Span
{
    std::string name;
    uint32_t id = 0;     ///< index in the recorder, unique per process
    int32_t parent = -1; ///< id of the enclosing span, -1 at the root
    uint32_t run = 0;    ///< program run the span belongs to (0 = pass)
    int64_t startNs = 0;
    int64_t endNs = 0;

    int64_t durationNs() const { return endNs - startNs; }
};

/**
 * In-memory span recorder. begin() opens a span as a child of the
 * innermost open span; end() closes the innermost one. Nothing is
 * written until the caller serializes spans() at exit.
 */
class SpanRecorder
{
  public:
    uint32_t begin(const std::string &name, uint32_t run);
    void end();

    /** Record a span with explicit times; begin() and tests use it. */
    uint32_t add(const std::string &name, int32_t parent, uint32_t run,
                 int64_t start_ns, int64_t end_ns);

    const std::vector<Span> &spans() const { return spans_; }

    /** Nanoseconds on the steady clock since the recorder was created. */
    int64_t nowNs() const;

  private:
    std::vector<Span> spans_;
    std::vector<uint32_t> open_;
    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
};

/**
 * Self time of every span, indexed by Span::id: its duration minus the
 * part of its interval that its children cover (children are clipped to
 * the parent and overlaps between them count once).
 */
std::vector<int64_t> selfTimesNs(const std::vector<Span> &spans);

/** Metric names are 1-64 of [A-Za-z0-9_.-], starting alphanumeric. */
bool validMetricName(const std::string &name);

/**
 * Every per-layer count the benchmark reports for one program run.
 * All are modeled (deterministic), so two runs of one program must agree
 * on every field.
 */
struct LayerCounts
{
    uint64_t instructions = 0;
    uint64_t cyclesFp = 0;
    uint64_t annotations = 0;
    uint64_t cacheAccesses = 0; ///< I+D cache hits + misses
    uint64_t replayedInstructions = 0; ///< block memo + superblock
    uint64_t memoHits = 0;
    uint64_t memoAttempts = 0;
    uint64_t sbHits = 0;
    uint64_t sbAttempts = 0;
    uint64_t sbDivergences = 0;
    uint64_t work = 0; ///< interpreter dispatch quanta
    uint64_t spaceOps = 0;
    uint64_t aotCalls = 0;
    uint64_t compiles = 0; ///< loops + bridges
    uint64_t tracesAborted = 0;
    uint64_t irNodesCompiled = 0;
    uint64_t compileInsts = 0;
    uint64_t traceEnters = 0;
    uint64_t deopts = 0;
    uint64_t gcCollections = 0; ///< minor + major
    uint64_t gcAllocations = 0;
    uint64_t gcFreedObjects = 0;
    uint64_t gcPromotedBytes = 0;

    bool operator==(const LayerCounts &) const = default;
    LayerCounts &operator+=(const LayerCounts &o);
};

/** What one program run produced, as the correctness gate sees it. */
struct RunFacts
{
    std::string error; ///< exception text; non-empty if the run threw
    bool completed = false;
    std::string output;
    LayerCounts counts;
};

/** What a program run must produce. */
struct Expected
{
    std::string finalLine; ///< empty: the output is not checked
    uint64_t instructions = 0;
    uint64_t cyclesFp = 0;
    uint64_t annotations = 0;
};

/** Last non-empty line of @p output, without its newline. */
std::string finalLine(const std::string &output);

/**
 * Check one run. @p first is the same program's first run in this
 * process (nullptr for the first run itself); every repetition must
 * report the same per-layer counts. Returns "" if the run is correct,
 * otherwise the reason it failed.
 */
std::string checkRun(const RunFacts &run, const Expected &want,
                     const LayerCounts *first);

/** Attempted and failed program runs, with the first failure's reason. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::string firstFailure;

    /** Count one run; @p reason is checkRun's verdict. */
    void record(const std::string &reason);

    double failRatio() const
    {
        return attempted ? double(failed) / double(attempted) : 0.0;
    }
};

/**
 * A fixed memory-bound kernel, timed between program runs to track how
 * fast the host is at the moment. Other tenants of a shared host slow
 * xlvm's runs by up to 2x in spells lasting from seconds to minutes, and
 * slow this kernel with them: four independent streams of random
 * read-modify-writes over a table four times the size of a core's L2,
 * bound by memory-level parallelism and the shared cache. Nothing of
 * xlvm runs in it, so a change to xlvm does not move it.
 */
class HostSpeedProbe
{
  public:
    static constexpr size_t kTableBytes = 8u << 20;
    static constexpr int kSteps = 150000; ///< per timed sweep and lane

    HostSpeedProbe();

    /** Host ms of one timed sweep, after an untimed warm-up sweep. */
    double sampleMs();

    /** Folded table contents; equal after equal numbers of sweeps. */
    uint64_t checksum() const;

  private:
    void sweep(int steps);

    std::vector<uint64_t> table_;
    uint64_t lanes_[4] = {1, 2, 3, 4};
};

/**
 * Host ms of one HostSpeedProbe sweep at the reference host speed: near
 * its median on the machine in NOTES.md. Timings are reported at this
 * speed.
 */
constexpr double kProbeReferenceMs = 3.0;

/**
 * @p hostMs, measured while the probe's sweeps took @p probeMs, scaled
 * to the reference host speed: hostMs * kProbeReferenceMs / probeMs.
 */
double atReferenceSpeed(double hostMs, double probeMs);

/**
 * Run order within one pass: a permutation of [0, n) drawn from the
 * workload seed and the pass index. The seed never reaches a program,
 * whose inputs are fixed.
 */
std::vector<size_t> passOrder(size_t n, uint64_t seed, uint64_t pass);

} // namespace hostbench

#endif // XLVM_HOSTBENCH_LOGIC_H
