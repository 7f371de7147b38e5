#include "telemetry/trace.hh"

#include <algorithm>

namespace charllm {
namespace telemetry {

hw::KernelTimeBreakdown
KernelTrace::breakdown(int device, double from) const
{
    hw::KernelTimeBreakdown b;
    for (const auto& e : events) {
        if (e.device == device && e.startSec >= from)
            b[e.cls] += e.durSec;
    }
    return b;
}

double
KernelTrace::horizonSec() const
{
    double horizon = 0.0;
    for (const auto& e : events)
        horizon = std::max(horizon, e.startSec + e.durSec);
    for (const auto& f : faults) {
        if (f.durSec >= 0.0)
            horizon = std::max(horizon, f.startSec + f.durSec);
    }
    return horizon;
}

} // namespace telemetry
} // namespace charllm
