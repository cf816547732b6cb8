/**
 * @file
 * Deterministic fault-injection engine.
 *
 * Chaos testing for the JIT's containment paths: a FaultEngine is a
 * set of counter-based trigger points ("the Nth time the recorder site
 * is visited, fail") armed from a spec string (`--inject` /
 * XLVM_INJECT). Because triggers are visit-counter based — never
 * time or randomness based — an injected failure is bit-reproducible
 * across runs and independent of --jobs (each VmContext owns its own
 * engine, like the sampler).
 *
 * Zero-cost when disarmed: every site probe starts with a single
 * predictable branch on armed(); a VM run without --inject executes
 * the exact same instruction stream as one built without the engine,
 * so modeled counters stay bit-identical (enforced by the fifth
 * check_goldens.sh pass, which arms a never-firing trigger).
 *
 * Spec grammar (comma-separated, later entries win per site):
 *     spec  := entry ("," entry)*
 *     entry := ["fault@"] site [":" nth]
 *     site  := recorder | optimizer | backend | trace_cache | gc_hook
 *     nth   := 1-based visit ordinal (default 1); the trigger is
 *              one-shot — it fires on exactly that visit.
 */

#ifndef XLVM_RT_FAULTS_H
#define XLVM_RT_FAULTS_H

#include <cstdint>
#include <string>

namespace xlvm {
namespace rt {

/** Where a fault can be injected. Stable numbering (metrics keys). */
enum class FaultSite : uint8_t
{
    kRecorder = 0,   ///< per traced dispatch: recording aborts
    kOptimizer = 1,  ///< trace optimization fails -> tier-1 retry
    kBackend = 2,    ///< backend compile fails -> recording discarded
    kTraceCache = 3, ///< registration sees cache pressure -> eviction/abort
    kGcHook = 4,     ///< GC safepoint misbehaves -> abort if recording
    kNumFaultSites
};

constexpr uint32_t kNumFaultSites =
    static_cast<uint32_t>(FaultSite::kNumFaultSites);

/** Stable snake_case name (metrics keys, spec strings). */
const char *faultSiteName(FaultSite s);

/** Parse a site name; returns false on unknown names. */
bool faultSiteFromString(const std::string &name, FaultSite *out);

class FaultEngine
{
  public:
    /**
     * Arm from a spec string (see file comment). An empty spec leaves
     * the engine disarmed. Returns false (and fills @p err with a
     * one-line message) on a malformed spec, leaving the engine
     * disarmed.
     */
    bool configure(const std::string &spec, std::string *err);

    bool armed() const { return armed_; }

    /**
     * Probe a trigger point. The disarmed path is one predictable
     * branch. When armed, every probe counts a visit (telemetry) and
     * returns true exactly once: on the visit ordinal the site was
     * armed for.
     */
    bool
    shouldFire(FaultSite s)
    {
        if (!armed_)
            return false;
        return tick(s);
    }

    /** Telemetry: probes seen / faults delivered per site. */
    uint64_t visits(FaultSite s) const
    {
        return sites_[static_cast<uint32_t>(s)].visits;
    }
    uint64_t fired(FaultSite s) const
    {
        return sites_[static_cast<uint32_t>(s)].fired;
    }
    uint64_t totalFired() const;

  private:
    bool tick(FaultSite s);

    struct SiteState
    {
        bool active = false; ///< a trigger is armed for this site
        uint64_t nth = 0;    ///< 1-based firing ordinal
        uint64_t visits = 0;
        uint64_t fired = 0;
    };

    bool armed_ = false;
    SiteState sites_[kNumFaultSites];
};

} // namespace rt
} // namespace xlvm

#endif // XLVM_RT_FAULTS_H
