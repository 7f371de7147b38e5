#include "hw/gpu.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "hw/activity_profile.hh"
#include "hw/calibration.hh"

namespace charllm {
namespace hw {

void
GpuRecord::set(double now, const Values& values)
{
    double dt = now - since;
    CHARLLM_ASSERT(dt >= -1e-12, "gpu time went backwards");
    if (dt > 0.0) {
        for (std::size_t s = 0; s < NumSignals; ++s) {
            sum[s] += held[s] * dt;
            peak[s] = std::max(peak[s], held[s]);
        }
        span += dt;
        if (held[Clock] < calib::kThrottleClockThresholdRel)
            below += dt;
    }
    since = now;
    held = values;
}

void
GpuRecord::restart(double now)
{
    Values values = held;
    *this = GpuRecord();
    since = now;
    held = values;
}

Gpu::Gpu(int global_id, const GpuSpec& spec)
    : globalId(global_id),
      gpuSpec(spec),
      compute(spec),
      governor(spec),
      powerCapW(spec.tdpWatts.value())
{
    active.reserve(kActiveReserve);
    refresh(0.0);
    tempTw.update(0.0, calib::kRoomTempC);
}

std::uint64_t
Gpu::kernelBegin(KernelClass cls, double sm_util, double now)
{
    std::uint64_t token = nextToken++;
    // Tokens only grow, so appending keeps the set in token order.
    active.push_back(ActiveKernel{token, cls, sm_util});
    aggregate(now);
    return token;
}

void
Gpu::kernelEnd(std::uint64_t token, double now)
{
    auto it = std::find_if(active.begin(), active.end(),
                           [token](const ActiveKernel& k) {
        return k.token == token;
    });
    CHARLLM_ASSERT(it != active.end(), "unknown kernel token ", token);
    active.erase(it);
    aggregate(now);
}

void
Gpu::addKernelTime(KernelClass cls, Seconds duration)
{
    kernelTime[cls] += duration.value();
}

void
Gpu::aggregate(double now)
{
    double compute_act = 0.0;
    double comm_act = 0.0;
    Activity a;
    for (const ActiveKernel& k : active) {
        const ActivityProfile& p = activityProfileFor(k.cls);
        double occ = p.occupancy;
        if (isComputeClass(k.cls)) {
            ++a.computeKernels;
            compute_act = std::max(
                compute_act, computeActivity(p, std::max(k.smUtil, 0.0)));
            occ *= std::max(k.smUtil, 0.3);
        } else {
            ++a.commKernels;
            comm_act = std::max(comm_act, p.powerActivity);
        }
        a.occupancy = std::max(a.occupancy, occ);
        a.warps += p.warpsPerSm;
        a.threadblocks += p.threadblocks;
    }
    a.power = stackedActivity(compute_act, comm_act);
    a.occupancy = std::min(a.occupancy, 1.0);
    activity = a;
    refresh(now);
}

void
Gpu::refresh(double now)
{
    ++refreshCount;
    double clk = clockRel().value();
    Watts p = scaledPower(gpuSpec, activity.power, clockScale(clk));
    record.set(now, {p.value(), clk, activity.occupancy, activity.warps,
                     activity.threadblocks});
    noteChange();
}

double
Gpu::clockScale(double clk)
{
    for (std::size_t i = 0; i < memoClk.size(); ++i) {
        if (memoClk[i] == clk) {
            memoVictim = 1 - i;
            return memoScale[i];
        }
    }
    ++powerEvalCount;
    std::size_t i = memoVictim;
    memoClk[i] = clk;
    memoScale[i] = std::pow(clk, calib::kClockPowerExp);
    memoVictim = 1 - i;
    return memoScale[i];
}

Gpu::GovernorStep
Gpu::governorUpdate(Celsius temp, double now)
{
    double before = clockRel().value();
    ClockRel governor_before = governor.clockRel();
    ThrottleReason reason_before = governor.lastReason();
    bool compute_bound = activity.computeKernels > 0 &&
                         activity.computeKernels >= activity.commKernels;
    // Enforce an explicit power cap (e.g. injected node fault) by
    // treating it as the TDP the governor sees.
    double effective_power = power().value();
    if (powerCapW < gpuSpec.tdpWatts.value())
        effective_power += gpuSpec.tdpWatts.value() - powerCapW;
    governor.evaluate(temp, Watts(effective_power), compute_bound);
    GovernorStep step;
    step.stateChanged = governor.clockRel() != governor_before ||
                        governor.lastReason() != reason_before;
    if (clockRel().value() != before) {
        refresh(now);
        step.clockChanged = true;
    }
    return step;
}

bool
Gpu::thermalUpdate(Celsius temp, double now)
{
    recordTemperature(temp, now);
    return governorUpdate(temp, now).clockChanged;
}

bool
Gpu::setSlowdown(double factor, double now)
{
    CHARLLM_ASSERT(factor > 0.0 && factor <= 1.0,
                   "slowdown factor must be in (0, 1]: ", factor);
    if (factor == slowdown)
        return false;
    slowdown = factor;
    refresh(now);
    return true;
}

void
Gpu::addTraffic(TrafficClass cls, Bytes bytes)
{
    traffic[static_cast<std::size_t>(cls)] += bytes.value();
}

Bytes
Gpu::trafficBytes(TrafficClass cls) const
{
    return Bytes(traffic[static_cast<std::size_t>(cls)]);
}

void
Gpu::finishStats(double now)
{
    refresh(now);
    tempTw.finish(now);
}

void
Gpu::resetStats(double now)
{
    refresh(now);
    record.restart(now);
    for (double& t : traffic)
        t = 0.0;
    kernelTime = KernelTimeBreakdown();
    tempTw.restart(now);
}

} // namespace hw
} // namespace charllm
