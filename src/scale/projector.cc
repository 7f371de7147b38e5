#include "scale/projector.hh"

#include <cmath>

#include "common/logging.hh"
#include "coll/cost_model.hh"

namespace charllm {
namespace scale {

Projector::Projector(const ProjectionInput& input) : in(input)
{
    CHARLLM_ASSERT(std::isfinite(in.computeSeconds.value()) &&
                       std::isfinite(in.intraCommSeconds.value()) &&
                       std::isfinite(in.interCommSeconds.value()) &&
                       std::isfinite(in.gradBytesPerGpu.value()) &&
                       std::isfinite(in.tokensPerIteration) &&
                       std::isfinite(in.nodeBandwidth.value()) &&
                       std::isfinite(in.messageLatency.value()),
                   "non-finite projection input");
    CHARLLM_ASSERT(in.computeSeconds.value() >= 0.0 &&
                       in.intraCommSeconds.value() >= 0.0 &&
                       in.interCommSeconds.value() >= 0.0,
                   "negative baseline time in projection input");
    CHARLLM_ASSERT(in.computeSeconds.value() +
                           in.intraCommSeconds.value() +
                           in.interCommSeconds.value() >
                       0.0,
                   "all-zero baseline times in projection input");
    CHARLLM_ASSERT(in.gradBytesPerGpu.value() >= 0.0,
                   "negative gradient payload in projection input");
    CHARLLM_ASSERT(in.baseGpus >= 1 && in.gpusPerNode >= 1,
                   "invalid GPU counts in projection input");
    CHARLLM_ASSERT(in.tokensPerIteration > 0.0,
                   "non-positive tokens per iteration");
    CHARLLM_ASSERT(in.nodeBandwidth.value() > 0.0,
                   "non-positive node bandwidth");
    CHARLLM_ASSERT(in.messageLatency.value() >= 0.0,
                   "negative message latency");
}

ProjectionPoint
Projector::project(int dp, double bandwidth_multiplier) const
{
    CHARLLM_ASSERT(dp >= 1 && std::isfinite(bandwidth_multiplier) &&
                       bandwidth_multiplier > 0.0,
                   "invalid projection point");
    ProjectionPoint p;
    p.dp = dp;
    p.totalGpus = in.baseGpus * dp;

    double d = static_cast<double>(dp);
    // Fixed global batch: each replica handles 1/dp of the tokens.
    p.computeSeconds = Seconds(in.computeSeconds.value() / d);
    double intra = in.intraCommSeconds.value() / d;
    double inter =
        in.interCommSeconds.value() / (d * bandwidth_multiplier);
    p.commSeconds = Seconds(intra + inter);

    // DP gradient AllReduce. The datacenter-scale what-if assumes a
    // rail-optimized fabric with one NIC per GPU (the paper's
    // projection follows the same convention via Astra-Sim), so each
    // DP ring sees the full (scaled) link bandwidth.
    if (dp > 1) {
        BytesPerSec ring_bw(in.nodeBandwidth.value() *
                            bandwidth_multiplier);
        p.allReduceSeconds = coll::ringAllReduceSeconds(
            dp, in.gradBytesPerGpu, ring_bw, in.messageLatency);
    }

    p.iterationSeconds =
        Seconds(p.computeSeconds.value() + p.commSeconds.value() +
                p.allReduceSeconds.value());
    p.tokensPerSecond =
        in.tokensPerIteration / p.iterationSeconds.value();
    p.perGpuTokensPerSecond =
        p.tokensPerSecond / static_cast<double>(p.totalGpus);

    // Ideal strong scaling divides the *same* operating point's
    // baseline by dp, so the baseline must see the same bandwidth
    // multiplier as the projected point — comparing against the
    // unscaled baseline made every bandwidth_multiplier > 1 report a
    // super-ideal "efficiency" above 1.0.
    double base_time_scaled =
        in.computeSeconds.value() + in.intraCommSeconds.value() +
        in.interCommSeconds.value() / bandwidth_multiplier;
    double ideal_time = base_time_scaled / d;
    p.strongScalingEfficiency =
        ideal_time / p.iterationSeconds.value();

    CHARLLM_ASSERT(std::isfinite(p.iterationSeconds.value()) &&
                       std::isfinite(p.tokensPerSecond) &&
                       std::isfinite(p.perGpuTokensPerSecond) &&
                       std::isfinite(p.strongScalingEfficiency),
                   "non-finite projection output at dp ", dp);
    return p;
}

} // namespace scale
} // namespace charllm
