#include "rt/faults.h"

#include <cstdlib>

namespace xlvm {
namespace rt {

const char *
faultSiteName(FaultSite s)
{
    switch (s) {
      case FaultSite::kRecorder: return "recorder";
      case FaultSite::kOptimizer: return "optimizer";
      case FaultSite::kBackend: return "backend";
      case FaultSite::kTraceCache: return "trace_cache";
      case FaultSite::kGcHook: return "gc_hook";
      case FaultSite::kNumFaultSites: break;
    }
    return "unknown";
}

bool
faultSiteFromString(const std::string &name, FaultSite *out)
{
    for (uint32_t i = 0; i < kNumFaultSites; ++i) {
        FaultSite s = static_cast<FaultSite>(i);
        if (name == faultSiteName(s)) {
            *out = s;
            return true;
        }
    }
    return false;
}

bool
FaultEngine::configure(const std::string &spec, std::string *err)
{
    armed_ = false;
    for (auto &st : sites_)
        st = SiteState();
    if (spec.empty())
        return true;

    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string entry = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (entry.empty())
            continue;

        // Optional "fault@" prefix (the only fault kind today).
        size_t at = entry.find('@');
        if (at != std::string::npos) {
            std::string kind = entry.substr(0, at);
            if (kind != "fault") {
                if (err)
                    *err = "--inject: unknown fault kind '" + kind + "'";
                armed_ = false;
                return false;
            }
            entry = entry.substr(at + 1);
        }

        std::string siteName = entry;
        uint64_t nth = 1;
        size_t colon = entry.find(':');
        if (colon != std::string::npos) {
            siteName = entry.substr(0, colon);
            std::string nthStr = entry.substr(colon + 1);
            char *end = nullptr;
            unsigned long long v =
                std::strtoull(nthStr.c_str(), &end, 10);
            if (nthStr.empty() || end == nullptr || *end != '\0' ||
                v == 0) {
                if (err) {
                    *err = "--inject: bad visit ordinal '" + nthStr +
                           "' (want a positive integer)";
                }
                armed_ = false;
                return false;
            }
            nth = v;
        }

        FaultSite site;
        if (!faultSiteFromString(siteName, &site)) {
            if (err) {
                *err = "--inject: unknown site '" + siteName +
                       "' (recorder|optimizer|backend|trace_cache|"
                       "gc_hook)";
            }
            armed_ = false;
            return false;
        }
        SiteState &st = sites_[static_cast<uint32_t>(site)];
        st.active = true;
        st.nth = nth;
        armed_ = true;
    }
    return true;
}

bool
FaultEngine::tick(FaultSite s)
{
    SiteState &st = sites_[static_cast<uint32_t>(s)];
    ++st.visits;
    if (!st.active || st.visits != st.nth)
        return false;
    ++st.fired;
    return true;
}

uint64_t
FaultEngine::totalFired() const
{
    uint64_t n = 0;
    for (const auto &st : sites_)
        n += st.fired;
    return n;
}

} // namespace rt
} // namespace xlvm
