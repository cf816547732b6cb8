/**
 * @file
 * AnnotationBus — the PinTool analog.
 *
 * The bus receives every annotation the core observes and fans it out to
 * registered listeners (profilers). Listeners are the analysis "tools" of
 * the methodology: phase breakdown, work-rate/warmup tracking, AOT-call
 * attribution, IR-node statistics.
 */

#ifndef XLVM_XLAYER_BUS_H
#define XLVM_XLAYER_BUS_H

#include <vector>

#include "sim/core.h"
#include "xlayer/annot.h"

namespace xlvm {
namespace xlayer {

/** One instrumentation tool subscribed to the bus. */
class AnnotListener
{
  public:
    virtual ~AnnotListener() = default;
    virtual void onAnnot(uint32_t tag, uint32_t payload) = 0;
};

class AnnotationBus : public sim::AnnotSink
{
  public:
    explicit AnnotationBus(sim::Core &core) : core_(core)
    {
        core.setAnnotSink(this);
    }

    void
    onAnnot(uint32_t tag, uint32_t payload) override
    {
        for (AnnotListener *l : listeners)
            l->onAnnot(tag, payload);
    }

    void addListener(AnnotListener *l) { listeners.push_back(l); }

    void
    removeListener(AnnotListener *l)
    {
        for (size_t i = 0; i < listeners.size(); ++i) {
            if (listeners[i] == l) {
                listeners.erase(listeners.begin() + i);
                return;
            }
        }
    }

    sim::Core &core() { return core_; }

  private:
    sim::Core &core_;
    std::vector<AnnotListener *> listeners;
};

} // namespace xlayer
} // namespace xlvm

#endif // XLVM_XLAYER_BUS_H
