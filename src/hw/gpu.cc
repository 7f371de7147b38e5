#include "hw/gpu.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "hw/activity_profile.hh"
#include "hw/calibration.hh"

namespace charllm {
namespace hw {

namespace {

const ActivityProfile&
profileFor(KernelClass cls)
{
    return activityProfileFor(cls);
}

} // namespace

Gpu::Gpu(int global_id, const GpuSpec& spec)
    : globalId(global_id),
      gpuSpec(spec),
      compute(spec),
      governor(spec),
      powerCapW(spec.tdpWatts.value()),
      clockTw(calib::kThrottleClockThresholdRel)
{
    active.reserve(kActiveReserve);
    currentPower = computePower();
    powerTw.update(0.0, currentPower);
    tempTw.update(0.0, calib::kRoomTempC);
    clockTw.update(0.0, clockRel().value());
    occTw.update(0.0, 0.0);
    warpTw.update(0.0, 0.0);
    blockTw.update(0.0, 0.0);
}

std::uint64_t
Gpu::kernelBegin(KernelClass cls, double sm_util, double now)
{
    std::uint64_t token = nextToken++;
    // Tokens only grow, so appending keeps the set in token order.
    active.push_back(ActiveKernel{token, cls, sm_util});
    if (isComputeClass(cls))
        ++activeComputeCount;
    else
        ++activeCommCount;
    refresh(now);
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
    if (isComputeClass(it->cls))
        --activeComputeCount;
    else
        --activeCommCount;
    active.erase(it);
    refresh(now);
}

void
Gpu::addKernelTime(KernelClass cls, Seconds duration)
{
    kernelTime[cls] += duration.value();
}

double
Gpu::occupancy() const
{
    double occ = 0.0;
    for (const ActiveKernel& k : active) {
        const auto& p = profileFor(k.cls);
        double contribution = p.occupancy;
        if (isComputeClass(k.cls))
            contribution *= std::max(k.smUtil, 0.3);
        occ = std::max(occ, contribution);
    }
    return std::min(occ, 1.0);
}

double
Gpu::warpsPerSm() const
{
    double warps = 0.0;
    for (const ActiveKernel& k : active)
        warps += profileFor(k.cls).warpsPerSm;
    return warps;
}

double
Gpu::threadblocks() const
{
    double blocks = 0.0;
    for (const ActiveKernel& k : active)
        blocks += profileFor(k.cls).threadblocks;
    return blocks;
}

double
Gpu::computePower() const
{
    using namespace calib;
    double compute_act = 0.0;
    double comm_act = 0.0;
    for (const ActiveKernel& k : active) {
        const auto& p = profileFor(k.cls);
        if (isComputeClass(k.cls)) {
            // Memory-bound kernels draw less core power.
            double act = p.powerActivity *
                         (0.55 + 0.45 * std::max(k.smUtil, 0.0));
            compute_act = std::max(compute_act, act);
        } else {
            comm_act = std::max(comm_act, p.powerActivity);
        }
    }
    // Overlapped compute+comm stacks activity (burst region), capped.
    double act = compute_act + 0.55 * comm_act;
    act = std::min(act, 1.20);

    double clk = clockRel().value();
    double dynamic_range = (gpuSpec.tdpWatts - gpuSpec.idleWatts).value();
    double p = gpuSpec.idleWatts.value() +
               dynamic_range * act * std::pow(clk, kClockPowerExp);
    return std::min(p, kPeakPowerCap * gpuSpec.tdpWatts.value());
}

void
Gpu::refresh(double now)
{
    CHARLLM_ASSERT(now + 1e-12 >= lastEnergyTime,
                   "gpu time went backwards");
    double dt = now - lastEnergyTime;
    if (dt > 0.0) {
        energy += currentPower * dt;
        lastEnergyTime = now;
    }
    currentPower = computePower();
    powerTw.update(now, currentPower);
    clockTw.update(now, clockRel().value());
    occTw.update(now, occupancy());
    warpTw.update(now, warpsPerSm());
    blockTw.update(now, threadblocks());
    noteChange();
}

Gpu::GovernorStep
Gpu::governorUpdate(Celsius temp, double now)
{
    double before = clockRel().value();
    ClockRel governor_before = governor.clockRel();
    ThrottleReason reason_before = governor.lastReason();
    bool compute_bound = activeComputeCount > 0 &&
                         activeComputeCount >= activeCommCount;
    // Enforce an explicit power cap (e.g. injected node fault) by
    // treating it as the TDP the governor sees.
    double effective_power = currentPower;
    if (powerCapW < gpuSpec.tdpWatts.value()) {
        effective_power =
            currentPower + (gpuSpec.tdpWatts.value() - powerCapW);
    }
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

double
Gpu::throttleRatio() const
{
    return clockTw.fractionBelow();
}

void
Gpu::finishStats(double now)
{
    refresh(now);
    powerTw.finish(now);
    tempTw.finish(now);
    clockTw.finish(now);
    occTw.finish(now);
    warpTw.finish(now);
    blockTw.finish(now);
}

void
Gpu::resetStats(double now)
{
    refresh(now);
    energy = 0.0;
    lastEnergyTime = now;
    for (double& t : traffic)
        t = 0.0;
    kernelTime = KernelTimeBreakdown();
    powerTw.reset();
    tempTw.restart(now);
    clockTw.reset();
    occTw.reset();
    warpTw.reset();
    blockTw.reset();
    powerTw.update(now, currentPower);
    clockTw.update(now, clockRel().value());
    occTw.update(now, occupancy());
    warpTw.update(now, warpsPerSm());
    blockTw.update(now, threadblocks());
}

} // namespace hw
} // namespace charllm
