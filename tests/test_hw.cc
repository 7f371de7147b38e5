/**
 * @file
 * Unit tests for the hardware models: compute roofline, power,
 * RC thermal network with airflow preheat, DVFS governor, and the GPU
 * device aggregate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "hw/activity_profile.hh"
#include "hw/calibration.hh"
#include "hw/chassis.hh"
#include "hw/compute_model.hh"
#include "hw/dvfs.hh"
#include "hw/gpu.hh"
#include "hw/gpu_spec.hh"
#include "hw/platform.hh"
#include "hw/thermal_model.hh"
#include "sim/simulator.hh"

namespace {

using namespace charllm;
using namespace charllm::hw;
using namespace charllm::unit_literals;

// ---- specs -----------------------------------------------------------------

TEST(GpuSpec, Table3Values)
{
    GpuSpec h100 = h100Spec();
    GpuSpec h200 = h200Spec();
    GpuSpec gcd = mi250GcdSpec();

    EXPECT_NEAR(h100.memoryBytes.value(), 80e9, 1e6);
    EXPECT_NEAR(h200.memoryBytes.value(), 141e9, 1e6);
    EXPECT_NEAR(gcd.memoryBytes.value(), 64e9, 1e6);

    // H200 = H100 compute with more/faster memory.
    EXPECT_DOUBLE_EQ(h100.peakFlops.value(), h200.peakFlops.value());
    EXPECT_GT(h200.hbmBandwidth, h100.hbmBandwidth);

    EXPECT_DOUBLE_EQ(h100.tdpWatts.value(), 700.0);
    // Half of the 500 W package.
    EXPECT_DOUBLE_EQ(gcd.tdpWatts.value(), 250.0);
    EXPECT_TRUE(gcd.chipletGcd);
    EXPECT_FALSE(h100.chipletGcd);
}

// ---- compute model ---------------------------------------------------------

TEST(ComputeModel, EfficiencyIncreasesWithWork)
{
    ComputeModel m(h100Spec());
    ComputeWork small{KernelClass::Gemm, Flops(1e10), Bytes(0.0)};
    ComputeWork large{KernelClass::Gemm, Flops(1e13), Bytes(0.0)};
    EXPECT_LT(m.efficiency(small), m.efficiency(large));
    EXPECT_LE(m.efficiency(large), calib::kMaxMfu);
}

TEST(ComputeModel, AttentionLessEfficientThanGemm)
{
    ComputeModel m(h100Spec());
    ComputeWork gemm{KernelClass::Gemm, Flops(1e12), Bytes(0.0)};
    ComputeWork attn{KernelClass::Attention, Flops(1e12), Bytes(0.0)};
    EXPECT_GT(m.efficiency(gemm), m.efficiency(attn));
}

TEST(ComputeModel, DurationScalesInverselyWithClock)
{
    ComputeModel m(h100Spec());
    ComputeWork w{KernelClass::Gemm, Flops(5e12), Bytes(0.0)};
    double full = m.duration(w, ClockRel(1.0)).value();
    double slow = m.duration(w, ClockRel(0.5)).value();
    // Roughly 2x slower at half clock (launch overhead dilutes a bit).
    EXPECT_GT(slow, 1.8 * full);
}

TEST(ComputeModel, MemoryBoundKernelsIgnoreClock)
{
    ComputeModel m(h100Spec());
    // Tiny flops, huge memory traffic: HBM-bound.
    ComputeWork w{KernelClass::Optimizer, Flops(1e9), Bytes(2e12)};
    EXPECT_NEAR(m.duration(w, ClockRel(1.0)).value(),
                m.duration(w, ClockRel(0.6)).value(), 1e-9);
    EXPECT_LT(m.smUtilization(w), 0.2);
}

TEST(ComputeModel, RooflineCrossover)
{
    ComputeModel m(h100Spec());
    // Compute-bound kernel dominated by flop time.
    ComputeWork cb{KernelClass::Gemm, Flops(1e13), Bytes(1e9)};
    double t =
        m.duration(cb, ClockRel(1.0)).value() - calib::kKernelOverheadSec;
    double flop_time = 1e13 / (h100Spec().peakFlops.value() *
                               m.efficiency(cb));
    EXPECT_NEAR(t, flop_time, 1e-9);
    EXPECT_GT(m.smUtilization(cb), 0.9);
}

// ---- DVFS ------------------------------------------------------------------

TEST(Dvfs, ThrottlesWhenHot)
{
    GpuSpec spec = h100Spec();
    DvfsGovernor g(spec);
    double before = g.clockRel().value();
    g.evaluate(spec.throttleTempC + 2.0_dC, 400.0_W, true);
    EXPECT_LT(g.clockRel().value(), before);
    EXPECT_EQ(g.lastReason(), ThrottleReason::Thermal);
}

TEST(Dvfs, ThrottlesOnPowerCap)
{
    GpuSpec spec = h100Spec();
    DvfsGovernor g(spec);
    g.evaluate(Celsius(50.0), spec.tdpWatts + 50.0_W, true);
    EXPECT_LT(g.clockRel().value(), 1.0);
    EXPECT_EQ(g.lastReason(), ThrottleReason::PowerCap);
}

TEST(Dvfs, BoostsWhenCoolAndComputeBound)
{
    GpuSpec spec = h100Spec();
    DvfsGovernor g(spec);
    for (int i = 0; i < 50; ++i)
        g.evaluate(Celsius(55.0), 500.0_W, true);
    EXPECT_NEAR(g.clockRel().value(), spec.boostRel().value(), 1e-9);
}

TEST(Dvfs, NoBoostWhenCommBound)
{
    GpuSpec spec = h100Spec();
    DvfsGovernor g(spec);
    for (int i = 0; i < 50; ++i)
        g.evaluate(Celsius(55.0), 300.0_W, false);
    EXPECT_NEAR(g.clockRel().value(), 1.0, 1e-9);
}

TEST(Dvfs, RecoversWithHysteresis)
{
    GpuSpec spec = h100Spec();
    DvfsGovernor g(spec);
    g.evaluate(spec.throttleTempC + 1.0_dC, 400.0_W, true);
    double throttled = g.clockRel().value();
    // Just below throttle but inside hysteresis: hold.
    g.evaluate(spec.throttleTempC - 1.0_dC, 400.0_W, true);
    EXPECT_DOUBLE_EQ(g.clockRel().value(), throttled);
    // Well below: step back up.
    for (int i = 0; i < 100; ++i)
        g.evaluate(spec.throttleTempC - 10.0_dC, 400.0_W, false);
    EXPECT_NEAR(g.clockRel().value(), 1.0, 1e-9);
}

TEST(Dvfs, RecoversInSoftZone)
{
    // Regression: a throttled clock must creep back toward nominal
    // while the temperature sits between the governor setpoint and the
    // hysteresis band. The original soft-zone branch only pulled boost
    // clocks down, so a derated device was stuck there forever.
    GpuSpec spec = h100Spec();
    DvfsGovernor g(spec);
    g.evaluate(spec.throttleTempC + 2.0_dC, 400.0_W, true);
    ASSERT_LT(g.clockRel().value(), 1.0);
    double soft =
        0.5 * (spec.targetTempC.value() +
               (spec.throttleTempC.value() - calib::kThermalHysteresisC));
    ASSERT_GE(soft, spec.targetTempC.value());
    ASSERT_LT(soft,
              spec.throttleTempC.value() - calib::kThermalHysteresisC);
    double prev = g.clockRel().value();
    g.evaluate(Celsius(soft), 400.0_W, true);
    EXPECT_GT(g.clockRel().value(), prev);
    // The residual derate keeps its cause until fully recovered.
    EXPECT_NE(g.lastReason(), ThrottleReason::None);
    for (int i = 0; i < 100; ++i)
        g.evaluate(Celsius(soft), 400.0_W, true);
    EXPECT_NEAR(g.clockRel().value(), 1.0, 1e-9);
    EXPECT_EQ(g.lastReason(), ThrottleReason::None);
}

TEST(Dvfs, ClampedToMinClock)
{
    GpuSpec spec = h100Spec();
    DvfsGovernor g(spec);
    for (int i = 0; i < 200; ++i)
        g.evaluate(spec.throttleTempC + 10.0_dC, 900.0_W, true);
    EXPECT_NEAR(g.clockRel().value(), spec.minRel().value(), 1e-9);
}

// ---- thermal model ---------------------------------------------------------

TEST(Thermal, SteadyStateMatchesAnalytic)
{
    ThermalModel tm(hgxLayout(), 1);
    std::vector<Watts> powers(8, 400.0_W);
    // Integrate long enough to converge.
    for (int i = 0; i < 200000; ++i)
        tm.step(Seconds(0.002), powers);
    for (int i = 0; i < 8; ++i)
        EXPECT_NEAR(tm.temperature(i).value(),
                    tm.steadyState(i, powers).value(), 0.2);
}

TEST(Thermal, RearGpusHotterThanFront)
{
    ThermalModel tm(hgxLayout(), 1);
    std::vector<Watts> powers(8, 600.0_W);
    tm.warmStart(powers);
    // Even devices sit at the intake, odd ones at the exhaust.
    for (int front = 0; front < 8; front += 2) {
        for (int rear = 1; rear < 8; rear += 2)
            EXPECT_GT(tm.temperature(rear).value(),
                      tm.temperature(front).value() + 5.0);
    }
}

TEST(Thermal, PreheatProportionalToUpstreamPower)
{
    ThermalModel tm(hgxLayout(), 1);
    std::vector<Watts> low(8, 100.0_W), high(8, 700.0_W);
    double rise_low =
        tm.inletTemperature(5, low).value() - calib::kRoomTempC;
    double rise_high =
        tm.inletTemperature(5, high).value() - calib::kRoomTempC;
    EXPECT_NEAR(rise_high / rise_low, 7.0, 1e-9);
}

TEST(Thermal, StepRespondsWithTimeConstant)
{
    ThermalModel tm(hgxLayout(), 1);
    std::vector<Watts> powers(8, 0.0_W);
    powers[0] = 500.0_W;
    // After one time constant, ~63% of the way to steady state.
    double target = tm.steadyState(0, powers).value();
    double start = tm.temperature(0).value();
    int steps = static_cast<int>(calib::kThermalTauSec / 0.001);
    for (int i = 0; i < steps; ++i)
        tm.step(Seconds(0.001), powers);
    double progress =
        (tm.temperature(0).value() - start) / (target - start);
    EXPECT_NEAR(progress, 0.632, 0.02);
}

TEST(Thermal, PackageCouplingPullsGcdsTogether)
{
    ThermalModel tm(mi250Layout(), 1);
    std::vector<Watts> powers(8, 0.0_W);
    powers[0] = 250.0_W; // only GCD 0 busy; GCD 1 idle, same package
    for (int i = 0; i < 60000; ++i)
        tm.step(Seconds(0.002), powers);
    double hot = tm.temperature(0).value();
    double peer = tm.temperature(1).value();
    double far = tm.temperature(2).value();
    EXPECT_GT(peer, far + 2.0); // peer warmed through the package
    EXPECT_LT(peer, hot);       // but still cooler than the busy GCD
}

TEST(Thermal, Mi250IntraPackageSkew)
{
    // Under uniform load the downstream GCD of each package runs
    // hotter (paper reports 5-10 degC skew).
    ThermalModel tm(mi250Layout(), 1);
    std::vector<Watts> powers(8, 220.0_W);
    tm.warmStart(powers);
    for (int i = 0; i < 120000; ++i)
        tm.step(Seconds(0.002), powers);
    for (int pkg = 0; pkg < 4; ++pkg) {
        double skew = (tm.temperature(pkg * 2 + 1) -
                       tm.temperature(pkg * 2))
                          .value();
        EXPECT_GT(skew, 0.5);
        EXPECT_LT(skew, 12.0);
    }
}

TEST(Thermal, MultiNodeIndependence)
{
    ThermalModel tm(hgxLayout(), 2);
    std::vector<Watts> powers(16, 0.0_W);
    for (int i = 0; i < 8; ++i)
        powers[i] = 700.0_W; // node 0 busy, node 1 idle
    tm.warmStart(powers);
    for (int i = 8; i < 16; ++i)
        EXPECT_NEAR(tm.temperature(i).value(), calib::kRoomTempC, 0.5);
    for (int i = 0; i < 8; ++i)
        EXPECT_GT(tm.temperature(i).value(), 60.0);
}

/** Largest |a - b| / |b| so far. */
struct WorstRel
{
    double worst = 0.0;

    void
    operator()(double a, double b)
    {
        worst = std::max(worst, std::fabs(a - b) / std::fabs(b));
    }
};

/**
 * The closed form evaluates the Euler recurrence exactly: per tick, and
 * summed over each constant-power stretch, it matches iterated step()
 * to rounding, across power changes and thermal faults set between
 * ticks (which mark the node for re-anchoring).
 */
void
expectClosedFormMatchesEuler(const ChassisLayout& layout, int nodes)
{
    ThermalModel euler(layout, nodes), closed(layout, nodes);
    const int n = euler.numDevices();
    const double dt = calib::kGovernorPeriodSec;
    Rng rng(11);
    std::vector<Watts> powers(static_cast<std::size_t>(n));
    WorstRel per_tick, sum, hi, lo;
    int interior_peaks = 0;
    for (int stretch = 0; stretch < 8; ++stretch) {
        // Even stretches change every power (the caller marks the
        // nodes); odd ones change a fault, which marks its node itself,
        // or nothing.
        if (stretch % 2 == 0) {
            for (auto& p : powers)
                p = Watts(rng.uniform(60.0, 700.0));
            for (int node = 0; node < nodes; ++node)
                closed.markStale(node);
        }
        if (stretch == 3) {
            euler.setInletOffset(1, CelsiusDelta(12.0));
            closed.setInletOffset(1, CelsiusDelta(12.0));
        }
        if (stretch == 5) {
            euler.setResistanceScale(n - 2, 1.7);
            closed.setResistanceScale(n - 2, 1.7);
            euler.setInletOffset(1, CelsiusDelta(0.0));
            closed.setInletOffset(1, CelsiusDelta(0.0));
        }
        for (int node : closed.staleNodes())
            closed.reanchor(node, powers);
        closed.clearStale();

        const std::int64_t first = closed.ticks() + 1;
        const int length = 500 + static_cast<int>(rng.below(6000));
        std::vector<double> e_sum(n, 0.0), e_hi(n, -1e300), e_lo(n, 1e300);
        std::vector<int> at_hi(n, 0);
        for (int k = 0; k < length; ++k) {
            euler.step(Seconds(dt), powers);
            closed.advance();
            for (int i = 0; i < n; ++i) {
                double t = euler.temperature(i).value();
                per_tick(closed.temperature(i).value(), t);
                e_sum[i] += t;
                if (t > e_hi[i]) {
                    e_hi[i] = t;
                    at_hi[i] = k;
                }
                e_lo[i] = std::min(e_lo[i], t);
            }
        }
        for (int i = 0; i < n; ++i) {
            auto run = closed.run(i, first, closed.ticks());
            sum(run.sum, e_sum[i]);
            hi(run.hi, e_hi[i]);
            lo(run.lo, e_lo[i]);
            interior_peaks += at_hi[i] > 0 && at_hi[i] < length - 1;
        }
    }
    EXPECT_LE(per_tick.worst, 1e-12);
    EXPECT_LE(sum.worst, 1e-12);
    EXPECT_LE(hi.worst, 1e-12);
    EXPECT_LE(lo.worst, 1e-12);
    if (layout.slots[0].packagePeer >= 0) {
        // Some GCD pair turned inside a stretch.
        EXPECT_GT(interior_peaks, 0);
    }
}

TEST(Thermal, ClosedFormMatchesEulerHgx)
{
    expectClosedFormMatchesEuler(hgxLayout(), 2);
}

TEST(Thermal, ClosedFormMatchesEulerMi250)
{
    expectClosedFormMatchesEuler(mi250Layout(), 2);
}

TEST(Thermal, BandExitIsNeverLate)
{
    // A cold pair heating toward an inlet-hot target: the first tick
    // outside [lo, hi) is what firstTickLeaving finds, for bands the
    // trajectory leaves upward and downward.
    ThermalModel tm(mi250Layout(), 1);
    std::vector<Watts> powers(8, 60.0_W);
    powers[0] = 560.0_W;
    tm.warmStart(std::vector<Watts>(8, 400.0_W));
    for (int node : tm.staleNodes())
        tm.reanchor(node, powers);
    tm.clearStale();
    for (int i = 0; i < 8; ++i) {
        double t0 = tm.temperatureAt(i, 0);
        for (double width : {0.5, 3.0, 20.0}) {
            double lo = t0 - width, hi = t0 + width;
            std::int64_t exit = tm.firstTickLeaving(i, 0, lo, hi);
            std::int64_t truth = -1;
            for (std::int64_t m = 1; m < 400000 && truth < 0; ++m) {
                double t = tm.temperatureAt(i, m);
                if (t < lo || t >= hi)
                    truth = m;
            }
            SCOPED_TRACE(i);
            if (truth < 0)
                continue; // settles inside: any answer is early enough
            ASSERT_GT(exit, 0);
            EXPECT_LE(exit, truth);
            EXPECT_GE(exit, truth - 1);
        }
    }
}

// ---- chassis layouts -------------------------------------------------------

TEST(Chassis, HgxFrontRowHasNoUpstream)
{
    ChassisLayout l = hgxLayout();
    ASSERT_EQ(l.gpusPerNode(), 8);
    for (int i = 0; i < 8; i += 2) {
        EXPECT_TRUE(l.slots[i].upstream.empty());
        EXPECT_EQ(l.slots[i].airflowRow, 0);
    }
    for (int i = 1; i < 8; i += 2) {
        EXPECT_FALSE(l.slots[i].upstream.empty());
        EXPECT_EQ(l.slots[i].airflowRow, 1);
    }
}

TEST(Chassis, Mi250PackagePeersAreSymmetric)
{
    ChassisLayout l = mi250Layout();
    for (int i = 0; i < 8; ++i) {
        int peer = l.slots[i].packagePeer;
        ASSERT_GE(peer, 0);
        EXPECT_EQ(l.slots[peer].packagePeer, i);
    }
}

// ---- Gpu device ------------------------------------------------------------

TEST(Gpu, IdlePowerAtRest)
{
    Gpu gpu(0, h100Spec());
    EXPECT_NEAR(gpu.power().value(), h100Spec().idleWatts.value(), 1.0);
}

TEST(Gpu, PowerRisesWithComputeKernel)
{
    Gpu gpu(0, h100Spec());
    double idle = gpu.power().value();
    auto tok = gpu.kernelBegin(KernelClass::Gemm, 1.0, 0.0);
    EXPECT_GT(gpu.power().value(), idle + 300.0);
    gpu.kernelEnd(tok, 1.0);
    EXPECT_NEAR(gpu.power().value(), idle, 1.0);
}

TEST(Gpu, CommKernelsDrawLessThanCompute)
{
    Gpu g1(0, h100Spec()), g2(1, h100Spec());
    auto t1 = g1.kernelBegin(KernelClass::Gemm, 1.0, 0.0);
    auto t2 = g2.kernelBegin(KernelClass::AllReduce, 0.0, 0.0);
    EXPECT_GT(g1.power().value(), g2.power().value() + 100.0);
    g1.kernelEnd(t1, 1.0);
    g2.kernelEnd(t2, 1.0);
}

TEST(Gpu, OverlapBurstsAboveSingleActivity)
{
    Gpu gpu(0, h100Spec());
    auto tc = gpu.kernelBegin(KernelClass::Gemm, 1.0, 0.0);
    double compute_only = gpu.power().value();
    auto tm = gpu.kernelBegin(KernelClass::AllReduce, 0.0, 0.0);
    EXPECT_GT(gpu.power().value(), compute_only);
    EXPECT_LE(gpu.power().value(),
              hw::calib::kPeakPowerCap * h100Spec().tdpWatts.value() +
                  1e-9);
    gpu.kernelEnd(tm, 1.0);
    gpu.kernelEnd(tc, 2.0);
}

TEST(Gpu, EnergyIntegratesOverTime)
{
    Gpu gpu(0, h100Spec());
    auto tok = gpu.kernelBegin(KernelClass::Gemm, 1.0, 0.0);
    double p = gpu.power().value();
    gpu.kernelEnd(tok, 2.0);
    EXPECT_NEAR(gpu.energyJoules().value(), p * 2.0, 1e-6);
}

TEST(Gpu, ThrottleRatioTracksClock)
{
    Gpu gpu(0, h100Spec());
    // Force a thermal excursion above the throttle point.
    gpu.thermalUpdate(Celsius(90.0), 0.0);
    EXPECT_LT(gpu.clockRel().value(), 1.0);
    gpu.thermalUpdate(Celsius(90.0), 1.0);
    gpu.finishStats(2.0);
    EXPECT_GT(gpu.throttleRatio(), 0.4);
}

TEST(Gpu, OccupancyHighForCommLowWarps)
{
    Gpu gpu(0, h100Spec());
    auto tok = gpu.kernelBegin(KernelClass::AllReduce, 0.0, 0.0);
    EXPECT_GT(gpu.occupancy(), 0.8);
    EXPECT_LT(gpu.warpsPerSm(), 5.0);
    gpu.kernelEnd(tok, 1.0);
    auto tok2 = gpu.kernelBegin(KernelClass::Gemm, 1.0, 1.0);
    EXPECT_GT(gpu.warpsPerSm(), 5.0);
    EXPECT_GT(gpu.threadblocks(), 500.0);
    gpu.kernelEnd(tok2, 2.0);
}

TEST(Gpu, TrafficCountersAccumulate)
{
    Gpu gpu(0, h100Spec());
    gpu.addTraffic(TrafficClass::Pcie, Bytes(1e9));
    gpu.addTraffic(TrafficClass::Pcie, Bytes(2e9));
    gpu.addTraffic(TrafficClass::NvLink, Bytes(5e9));
    EXPECT_DOUBLE_EQ(gpu.trafficBytes(TrafficClass::Pcie).value(), 3e9);
    EXPECT_DOUBLE_EQ(gpu.trafficBytes(TrafficClass::NvLink).value(),
                     5e9);
    gpu.resetStats(1.0);
    EXPECT_DOUBLE_EQ(gpu.trafficBytes(TrafficClass::Pcie).value(), 0.0);
}

// ---- the GPU's time-weighted record ----------------------------------------

/** Record values in which only the clock is set. */
GpuRecord::Values
clockOnly(double clk)
{
    return {0.0, clk, 0.0, 0.0, 0.0};
}

TEST(GpuRecord, ThrottleRatioCountsTimeBelowThreshold)
{
    // Each clock holds for one second.
    auto ratio = [](std::vector<double> clocks) {
        GpuRecord r;
        for (std::size_t i = 0; i < clocks.size(); ++i)
            r.set(static_cast<double>(i), clockOnly(clocks[i]));
        r.set(static_cast<double>(clocks.size()), clockOnly(1.0));
        return r.throttleRatio();
    };
    const double at = calib::kThrottleClockThresholdRel;
    EXPECT_EQ(ratio({1.0, 1.0, 0.8, 1.0}), 0.25);
    EXPECT_EQ(ratio({at, at, 1.2}), 0.0); // strictly below counts
    EXPECT_EQ(ratio({0.5, 0.9}), 1.0);
    EXPECT_EQ(GpuRecord().throttleRatio(), 0.0);
}

TEST(GpuRecord, RestartKeepsCountingBelowThreshold)
{
    GpuRecord r;
    r.set(0.0, clockOnly(0.5));
    r.set(1.0, clockOnly(0.5));
    r.restart(1.0);
    EXPECT_EQ(r.average(GpuRecord::Clock).duration, 0.0);
    EXPECT_EQ(r.average(GpuRecord::Clock).mean(), 0.5); // held value
    r.set(2.0, clockOnly(1.0)); // below for 1 s
    r.set(3.0, clockOnly(1.0)); // above for 1 s
    EXPECT_EQ(r.throttleRatio(), 0.5);
    EXPECT_EQ(r.average(GpuRecord::Clock).mean(), 0.75);
}

/** A kernel the reference below tracks, in issue order. */
struct RefKernel
{
    std::uint64_t token;
    KernelClass cls;
    double smUtil;
};

/** The per-kernel scans GpuRecord's aggregate replaced. */
double
refOccupancy(const std::vector<RefKernel>& ks)
{
    double occ = 0.0;
    for (const RefKernel& k : ks) {
        double c = activityProfileFor(k.cls).occupancy;
        if (isComputeClass(k.cls))
            c *= std::max(k.smUtil, 0.3);
        occ = std::max(occ, c);
    }
    return std::min(occ, 1.0);
}

double
refWarps(const std::vector<RefKernel>& ks)
{
    double warps = 0.0;
    for (const RefKernel& k : ks)
        warps += activityProfileFor(k.cls).warpsPerSm;
    return warps;
}

double
refBlocks(const std::vector<RefKernel>& ks)
{
    double blocks = 0.0;
    for (const RefKernel& k : ks)
        blocks += activityProfileFor(k.cls).threadblocks;
    return blocks;
}

double
refPower(const GpuSpec& spec, const std::vector<RefKernel>& ks, double clk)
{
    double compute_act = 0.0;
    double comm_act = 0.0;
    for (const RefKernel& k : ks) {
        const ActivityProfile& p = activityProfileFor(k.cls);
        if (isComputeClass(k.cls)) {
            compute_act = std::max(
                compute_act,
                p.powerActivity * (0.55 + 0.45 * std::max(k.smUtil, 0.0)));
        } else {
            comm_act = std::max(comm_act, p.powerActivity);
        }
    }
    double act = std::min(compute_act + 0.55 * comm_act, 1.20);
    double range = (spec.tdpWatts - spec.idleWatts).value();
    double p = spec.idleWatts.value() +
               range * act * std::pow(clk, calib::kClockPowerExp);
    return std::min(p, calib::kPeakPowerCap * spec.tdpWatts.value());
}

/**
 * The accounting GpuRecord replaced: one TimeWeightedStats per signal
 * and a separate energy sum, fed the device's held values at the
 * instants the device changes them.
 */
struct SignalReference
{
    TimeWeightedStats power, clock, occupancy, warps, blocks, throttled;
    TimeWeightedStats temp;
    double energy = 0.0;
    double energySince = 0.0;
    double heldPower = 0.0;

    void
    hold(double now, double p, double clk, const std::vector<RefKernel>& ks)
    {
        double dt = now - energySince;
        if (dt > 0.0) {
            energy += heldPower * dt;
            energySince = now;
        }
        heldPower = p;
        power.update(now, p);
        clock.update(now, clk);
        occupancy.update(now, refOccupancy(ks));
        warps.update(now, refWarps(ks));
        blocks.update(now, refBlocks(ks));
        throttled.update(
            now, clk < calib::kThrottleClockThresholdRel ? 1.0 : 0.0);
    }

    double
    throttleRatio() const
    {
        return throttled.duration() > 0.0 ? throttled.mean() : 0.0;
    }
};

TEST(GpuRecord, MatchesPerSignalReference)
{
    // A seeded schedule of overlapped kernels, governor clock moves
    // (temperatures and power caps), slowdowns, resets and finishes.
    // Every signal must agree with its own reference accumulator bit
    // for bit at every step.
    const GpuSpec spec = h100Spec();
    Gpu gpu(0, spec);
    SignalReference ref;
    std::vector<RefKernel> ks;
    ref.hold(0.0, gpu.power().value(), gpu.clockRel().value(), ks);
    ref.temp.update(0.0, calib::kRoomTempC);
    auto hold = [&](double now) {
        ref.hold(now, refPower(spec, ks, gpu.clockRel().value()),
                 gpu.clockRel().value(), ks);
    };

    Rng rng(23);
    double now = 0.0;
    int clock_moves = 0;
    // The last two clocks held: a move back to the one before is a
    // clock memo hit on a change.
    double clk_now = gpu.clockRel().value();
    double clk_before = -1.0;
    int clock_returns = 0;
    int resets = 0;
    int finishes = 0;
    std::size_t most_active = 0;
    for (int step = 0; step < 6000; ++step) {
        SCOPED_TRACE(step);
        // One step in four lands on the instant of the step before.
        if (rng.below(4) != 0)
            now += rng.uniform(0.0, 4e-3);
        bool changed = false;
        switch (rng.below(8)) {
          case 0:
          case 1:
            if (ks.size() < 6) {
                auto cls = static_cast<KernelClass>(
                    rng.below(kNumKernelClasses));
                double util = rng.uniform(-0.2, 1.0);
                ks.push_back({gpu.kernelBegin(cls, util, now), cls, util});
                changed = true;
            }
            break;
          case 2:
          case 3:
            if (!ks.empty()) {
                auto it = ks.begin() + static_cast<std::ptrdiff_t>(
                                           rng.below(ks.size()));
                gpu.kernelEnd(it->token, now);
                ks.erase(it);
                changed = true;
            }
            break;
          case 4: {
            double temp = rng.uniform(40.0, 100.0);
            changed = gpu.thermalUpdate(Celsius(temp), now);
            ref.temp.update(now, temp);
            clock_moves += changed;
            break;
          }
          case 5:
            gpu.setPowerCap(
                Watts(spec.tdpWatts.value() * rng.uniform(0.5, 1.0)));
            changed = gpu.governorUpdate(Celsius(50.0), now).clockChanged;
            clock_moves += changed;
            break;
          case 6:
            changed = gpu.setSlowdown(rng.below(3) == 0 ? 0.6 : 1.0, now);
            clock_moves += changed;
            break;
          case 7:
            if (rng.below(8) == 0) {
                gpu.resetStats(now);
                hold(now);
                for (TimeWeightedStats* tw :
                     {&ref.power, &ref.clock, &ref.occupancy, &ref.warps,
                      &ref.blocks, &ref.throttled}) {
                    tw->restart(now);
                }
                ref.temp.restart(now);
                ref.energy = 0.0;
                ref.energySince = now;
                ++resets;
            } else if (rng.below(8) == 0) {
                gpu.finishStats(now);
                hold(now);
                ref.temp.finish(now);
                ++finishes;
            }
            break;
        }
        if (changed)
            hold(now);
        most_active = std::max(most_active, ks.size());
        if (double clk = gpu.clockRel().value(); clk != clk_now) {
            clock_returns += clk == clk_before;
            clk_before = clk_now;
            clk_now = clk;
        }

        ASSERT_EQ(gpu.occupancy(), refOccupancy(ks));
        ASSERT_EQ(gpu.warpsPerSm(), refWarps(ks));
        ASSERT_EQ(gpu.threadblocks(), refBlocks(ks));
        ASSERT_EQ(gpu.power().value(),
                  refPower(spec, ks, gpu.clockRel().value()));
        ASSERT_EQ(gpu.energyJoules().value(), ref.energy);
        ASSERT_EQ(gpu.powerStats().mean(), ref.power.mean());
        ASSERT_EQ(gpu.powerStats().max(), ref.power.max());
        ASSERT_EQ(gpu.clockStats().mean(), ref.clock.mean());
        ASSERT_EQ(gpu.clockStats().max(), ref.clock.max());
        ASSERT_EQ(gpu.occupancyStats().mean(), ref.occupancy.mean());
        ASSERT_EQ(gpu.occupancyStats().max(), ref.occupancy.max());
        ASSERT_EQ(gpu.warpStats().mean(), ref.warps.mean());
        ASSERT_EQ(gpu.warpStats().max(), ref.warps.max());
        ASSERT_EQ(gpu.threadblockStats().mean(), ref.blocks.mean());
        ASSERT_EQ(gpu.threadblockStats().max(), ref.blocks.max());
        ASSERT_EQ(gpu.throttleRatio(), ref.throttleRatio());
        ASSERT_EQ(gpu.tempStats().mean(), ref.temp.mean());
        ASSERT_EQ(gpu.tempStats().max(), ref.temp.max());
    }
    EXPECT_GT(clock_moves, 0);
    // Both memo branches ran under the bitwise refPower check: moves
    // back hit it, and more misses than its two entries evicted.
    EXPECT_GT(clock_returns, 0);
    EXPECT_LT(gpu.powerEvals(), gpu.refreshes());
    EXPECT_GT(gpu.powerEvals(), 2u);
    EXPECT_GT(resets, 0);
    EXPECT_GT(finishes, 0);
    EXPECT_GE(most_active, 3u);
    EXPECT_GT(gpu.throttleRatio(), 0.0);
    EXPECT_GT(gpu.energyJoules().value(), 0.0);
}

// ---- platform integration --------------------------------------------------

TEST(Gpu, SlowdownScalesClockAndReportsFault)
{
    Gpu gpu(0, h100Spec());
    double nominal = gpu.clockGhz();
    EXPECT_TRUE(gpu.setSlowdown(0.5, 0.0));
    EXPECT_NEAR(gpu.clockGhz(), 0.5 * nominal, 1e-9);
    EXPECT_EQ(gpu.throttleReason(), ThrottleReason::Fault);
    EXPECT_FALSE(gpu.setSlowdown(0.5, 0.0)); // no-op, same factor
    EXPECT_TRUE(gpu.setSlowdown(1.0, 0.0));
    EXPECT_NEAR(gpu.clockGhz(), nominal, 1e-9);
    EXPECT_EQ(gpu.throttleReason(), ThrottleReason::None);
}

TEST(Platform, BusyGpusHeatUpAndEventuallyThrottle)
{
    sim::Simulator s;
    Platform plat(s, h100Spec(), hgxLayout(), 1);
    plat.start();
    // Pin all GPUs at full compute activity for 60 simulated seconds.
    std::vector<std::uint64_t> toks;
    for (int i = 0; i < plat.numGpus(); ++i)
        toks.push_back(plat.gpu(i).kernelBegin(KernelClass::Gemm, 1.0,
                                               0.0));
    s.schedule(sim::toTicks(60.0), [] {});
    s.run();
    // Rear GPUs (odd ids) should run hotter than front (even ids).
    double front = plat.temperature(0).value();
    double rear = plat.temperature(1).value();
    EXPECT_GT(rear, front + 5.0);
    // Rear GPUs heavily loaded at 700 W-class power hit throttle.
    EXPECT_GT(rear, h100Spec().targetTempC.value() - 10.0);
    for (int i = 0; i < plat.numGpus(); ++i)
        plat.gpu(i).kernelEnd(toks[static_cast<std::size_t>(i)],
                              s.nowSeconds());
}

TEST(Platform, NodePowerCapForcesThrottle)
{
    sim::Simulator s;
    Platform plat(s, h100Spec(), hgxLayout(), 2);
    plat.start();
    plat.capNodePower(1, 300.0_W); // node-level power fault
    for (int i = 0; i < plat.numGpus(); ++i)
        plat.gpu(i).kernelBegin(KernelClass::Gemm, 1.0, 0.0);
    s.schedule(sim::toTicks(10.0), [] {});
    s.run();
    // Node 1 GPUs should be clocked below node 0 GPUs.
    EXPECT_LT(plat.gpu(8).clockRel().value() + 0.05,
              plat.gpu(0).clockRel().value());
}

/** Records each clock change a platform reports: (device, new clock). */
class ClockLog : public ClockObserver
{
  public:
    explicit ClockLog(const Platform& platform) : plat(platform) {}

    void
    onClockChange(int id) override
    {
        calls.emplace_back(id, plat.gpu(id).clockRel().value());
    }

    std::vector<std::pair<int, double>> calls;

  private:
    const Platform& plat;
};

TEST(Platform, ClockObserverFires)
{
    sim::Simulator s;
    Platform plat(s, h100Spec(), hgxLayout(), 1);
    ClockLog log(plat);
    plat.setClockObserver(&log);
    plat.start();
    for (int i = 0; i < plat.numGpus(); ++i)
        plat.gpu(i).kernelBegin(KernelClass::Gemm, 1.0, 0.0);
    s.schedule(sim::toTicks(30.0), [] {});
    s.run();
    EXPECT_GT(log.calls.size(), 0u);
}

/**
 * Lazy and eager platforms driven in lockstep through a seeded schedule
 * of kernel begin/end, slowdowns, node power caps and thermal faults,
 * with quiet stretches long enough for temperatures to cross governor
 * bands unprompted and a change of tick spacing: at every tick the
 * clocks, throttle reasons and clock-observer calls are identical and
 * temperatures agree to 1e-9; so do the statistics at the end.
 */
void
expectLazyTracksEager(const GpuSpec& spec, const ChassisLayout& layout,
                      int nodes, std::uint64_t seed)
{
    sim::Simulator s_lazy, s_eager;
    Platform lazy(s_lazy, spec, layout, nodes);
    Platform eager(s_eager, spec, layout, nodes, TickMode::Eager);
    ClockLog log_lazy(lazy), log_eager(eager);
    lazy.setClockObserver(&log_lazy);
    eager.setClockObserver(&log_eager);
    auto& calls_lazy = log_lazy.calls;
    auto& calls_eager = log_eager.calls;
    const int n = lazy.numGpus();
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> live(
        static_cast<std::size_t>(n));
    Rng rng(seed);
    sim::Tick at = 0;
    double worst_temp = 0.0;
    std::uint64_t evals_before_tail = 0;
    const KernelClass kinds[] = {KernelClass::Gemm, KernelClass::Attention,
                                 KernelClass::AllReduce, KernelClass::Gemm};
    for (int k = 1; k <= 40000; ++k) {
        at += sim::toTicks(k < 25000 ? 0.002 : 0.003);
        s_lazy.runUntil(at);
        s_eager.runUntil(at);
        double now = s_lazy.nowSeconds();
        // Bursts of activity between quiet stretches, then an idle
        // tail that cools every device through the governor bands.
        int actions = k < 20000 && rng.uniform() < 0.004
                          ? 1 + static_cast<int>(rng.below(12))
                          : 0;
        if (k == 20000) {
            for (int id = 0; id < n; ++id) {
                for (auto [a, b] : live[static_cast<std::size_t>(id)]) {
                    lazy.gpu(id).kernelEnd(a, now);
                    eager.gpu(id).kernelEnd(b, now);
                }
                live[static_cast<std::size_t>(id)].clear();
            }
            evals_before_tail = lazy.counters().deviceEvals;
        }
        for (int a = 0; a < actions; ++a) {
            int id = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
            auto& mine = live[static_cast<std::size_t>(id)];
            double pick = rng.uniform();
            if (pick < 0.45 && mine.size() < 4) {
                KernelClass cls = kinds[rng.below(4)];
                double util = rng.uniform(0.3, 1.0);
                mine.emplace_back(lazy.gpu(id).kernelBegin(cls, util, now),
                                  eager.gpu(id).kernelBegin(cls, util, now));
            } else if (pick < 0.75 && !mine.empty()) {
                lazy.gpu(id).kernelEnd(mine.back().first, now);
                eager.gpu(id).kernelEnd(mine.back().second, now);
                mine.pop_back();
            } else if (pick < 0.82) {
                double f = rng.uniform() < 0.5 ? 1.0 : rng.uniform(0.4, 0.9);
                lazy.setGpuSlowdown(id, f);
                eager.setGpuSlowdown(id, f);
            } else if (pick < 0.88) {
                Watts cap = rng.uniform() < 0.5 ? spec.tdpWatts : Watts(300.0);
                lazy.capNodePower(lazy.nodeOf(id), cap);
                eager.capNodePower(eager.nodeOf(id), cap);
            } else if (pick < 0.94) {
                CelsiusDelta hot(rng.uniform() < 0.5 ? 0.0 : 15.0);
                lazy.thermal().setInletOffset(id, hot);
                eager.thermal().setInletOffset(id, hot);
            } else {
                double scale = rng.uniform() < 0.5 ? 1.0 : 1.8;
                lazy.thermal().setResistanceScale(id, scale);
                eager.thermal().setResistanceScale(id, scale);
            }
        }
        if (k == 12000) {
            lazy.resetStats();
            eager.resetStats();
        }
        lazy.tick();
        eager.tick();
        // A thermal step's size follows the overshoot, so clocks agree
        // to the temperatures' rounding.
        for (int i = 0; i < n; ++i) {
            ASSERT_NEAR(lazy.gpu(i).clockRel().value(),
                        eager.gpu(i).clockRel().value(), 1e-9)
                << "device " << i << " tick " << k;
            ASSERT_EQ(lazy.gpu(i).throttleReason(),
                      eager.gpu(i).throttleReason())
                << "device " << i << " tick " << k;
            double te = eager.temperature(i).value();
            worst_temp = std::max(
                worst_temp,
                std::fabs(lazy.temperature(i).value() - te) / te);
        }
        ASSERT_EQ(calls_lazy.size(), calls_eager.size()) << "tick " << k;
        for (std::size_t c = 0; c < calls_lazy.size(); ++c) {
            ASSERT_EQ(calls_lazy[c].first, calls_eager[c].first);
            ASSERT_NEAR(calls_lazy[c].second, calls_eager[c].second, 1e-9);
        }
        calls_lazy.clear();
        calls_eager.clear();
    }
    EXPECT_LE(worst_temp, 1e-9);
    lazy.finishStats();
    eager.finishStats();
    for (int i = 0; i < n; ++i) {
        const auto& a = lazy.gpu(i).tempStats();
        const auto& b = eager.gpu(i).tempStats();
        EXPECT_NEAR(a.mean(), b.mean(), 1e-9 * b.mean());
        EXPECT_NEAR(a.max(), b.max(), 1e-9 * b.max());
        EXPECT_NEAR(a.min(), b.min(), 1e-9 * b.min());
        EXPECT_EQ(a.duration(), b.duration());
        EXPECT_NEAR(lazy.gpu(i).throttleRatio(),
                    eager.gpu(i).throttleRatio(), 1e-9);
    }
    // The lazy platform decided as often; over the idle tail (20000
    // ticks) it evaluated under 2% of what the eager twin did.
    EXPECT_EQ(lazy.counters().clockChanges, eager.counters().clockChanges);
    EXPECT_GT(lazy.counters().clockChanges, 0u);
    EXPECT_LT(lazy.counters().deviceEvals - evals_before_tail,
              static_cast<std::uint64_t>(400 * n));
}

TEST(Platform, LazyTicksTrackEagerTwinHgx)
{
    for (std::uint64_t seed : {1, 2, 3})
        expectLazyTracksEager(h100Spec(), hgxLayout(), 2, seed);
}

TEST(Platform, LazyTicksTrackEagerTwinMi250)
{
    for (std::uint64_t seed : {4, 5})
        expectLazyTracksEager(mi250GcdSpec(), mi250Layout(), 1, seed);
}

/**
 * A GCD pinned at its minimum clock by a node power cap changes only
 * its throttle reason when its temperature crosses the throttle point
 * (power cap -> thermal -> power cap). Its pair's closed form rises
 * through the throttle point and turns back below it with no change on
 * the node in between, so only rule (b) keeps the device evaluated
 * after the first reason-only change.
 */
TEST(Platform, ReasonOnlyChangeKeepsDeviceDue)
{
    sim::Simulator s_lazy, s_eager;
    Platform lazy(s_lazy, mi250GcdSpec(), mi250Layout(), 1);
    Platform eager(s_eager, mi250GcdSpec(), mi250Layout(), 1,
                   TickMode::Eager);
    for (Platform* p : {&lazy, &eager}) {
        p->gpu(0).kernelBegin(KernelClass::Gemm, 1.0, 0.0);
        p->gpu(1).kernelBegin(KernelClass::Gemm, 1.0, 0.0);
        p->capNodePower(0, Watts(1.0));
        p->thermal().setInletOffset(0, CelsiusDelta(32.0));
        p->thermal().setInletOffset(1, CelsiusDelta(80.0));
    }
    const double min_rel = mi250GcdSpec().minRel().value();
    std::vector<ThrottleReason> seen;
    sim::Tick at = 0;
    for (int k = 1; k <= 30000; ++k) {
        at += sim::toTicks(0.002);
        s_lazy.runUntil(at);
        s_eager.runUntil(at);
        if (k == 20000) {
            // The peer cools while device 0's own target rises.
            for (Platform* p : {&lazy, &eager}) {
                p->thermal().setInletOffset(1, CelsiusDelta(0.0));
                p->thermal().setResistanceScale(0, 4.0);
            }
        }
        lazy.tick();
        eager.tick();
        for (int i = 0; i < lazy.numGpus(); ++i) {
            ASSERT_NEAR(lazy.gpu(i).clockRel().value(),
                        eager.gpu(i).clockRel().value(), 1e-9)
                << "device " << i << " tick " << k;
            ASSERT_EQ(lazy.gpu(i).throttleReason(),
                      eager.gpu(i).throttleReason())
                << "device " << i << " tick " << k;
        }
        if (k > 20000) {
            EXPECT_DOUBLE_EQ(eager.gpu(0).clockRel().value(), min_rel);
            ThrottleReason r = eager.gpu(0).throttleReason();
            if (seen.empty() || seen.back() != r)
                seen.push_back(r);
        }
    }
    EXPECT_EQ(seen, (std::vector<ThrottleReason>{ThrottleReason::PowerCap,
                                                 ThrottleReason::Thermal,
                                                 ThrottleReason::PowerCap}));
}

/**
 * The ticker fast-forward against the periodic ticker. One lazy
 * platform is armed by start(), so its quiet ticks are fast-forwarded;
 * its twin is ticked by a plain Simulator::every. A seeded schedule of
 * kernel begin/end, slowdowns, node power caps and thermal faults hits
 * both, inside events (a third of them exactly on the tick grid, where
 * the tick and the event tie) and between runUntil calls, next to a
 * second ticker at a sampler period, with quiet stretches long enough
 * for temperatures to cross governor bands unprompted. After every
 * runUntil, temperatures, clocks, reasons, temperature statistics,
 * governor counters, clock-observer calls and popped events are equal
 * bit for bit.
 */
class TickerTwinSide
{
  public:
    TickerTwinSide(const GpuSpec& spec, const ChassisLayout& layout,
                   int nodes, bool fast_forward)
        : p(s, spec, layout, nodes),
          live(static_cast<std::size_t>(p.numGpus())), clocks(p)
    {
        p.setClockObserver(&clocks);
        if (fast_forward)
            p.start();
        else
            s.every(sim::toTicks(calib::kGovernorPeriodSec),
                    [this] { p.tick(); });
        s.every(sim::toTicks(0.25), [this] {
            for (int i = 0; i < p.numGpus(); ++i)
                samples.push_back(p.temperature(i).value());
        });
        // Keeps the tickers armed for the whole schedule.
        s.schedule(sim::toTicks(1e4), [] {});
    }

    /** One seeded action, drawn once and applied to both twins. */
    struct Action
    {
        int kind;
        int id;
        double x;
    };

    void
    apply(const Action& a)
    {
        double now = s.nowSeconds();
        auto& mine = live[static_cast<std::size_t>(a.id)];
        switch (a.kind) {
          case 0:
            if (mine.size() < 4)
                mine.push_back(p.gpu(a.id).kernelBegin(
                    a.x < 0.5 ? KernelClass::Gemm : KernelClass::AllReduce,
                    0.3 + a.x * 0.7, now));
            break;
          case 1:
            if (!mine.empty()) {
                p.gpu(a.id).kernelEnd(mine.back(), now);
                mine.pop_back();
            }
            break;
          case 2:
            p.setGpuSlowdown(a.id, a.x < 0.5 ? 1.0 : 0.4 + a.x * 0.5);
            break;
          case 3:
            p.capNodePower(p.nodeOf(a.id),
                           a.x < 0.5 ? p.gpu(a.id).spec().tdpWatts
                                     : Watts(300.0));
            break;
          case 4:
            p.thermal().setInletOffset(a.id,
                                       CelsiusDelta(a.x < 0.5 ? 0.0 : 15.0));
            break;
          default:
            p.thermal().setResistanceScale(a.id, a.x < 0.5 ? 1.0 : 1.8);
            break;
        }
    }

    void
    endAll()
    {
        for (int id = 0; id < p.numGpus(); ++id) {
            for (std::uint64_t token : live[static_cast<std::size_t>(id)])
                p.gpu(id).kernelEnd(token, s.nowSeconds());
            live[static_cast<std::size_t>(id)].clear();
        }
    }

    sim::Simulator s;
    Platform p;
    std::vector<std::vector<std::uint64_t>> live;
    ClockLog clocks;
    std::vector<double> samples;
};

void
expectTwinTickersEqual(TickerTwinSide& a, TickerTwinSide& b, int step)
{
    ASSERT_EQ(a.s.now(), b.s.now());
    for (int i = 0; i < a.p.numGpus(); ++i) {
        ASSERT_EQ(a.p.temperature(i).value(), b.p.temperature(i).value())
            << "device " << i << " step " << step;
        ASSERT_EQ(a.p.gpu(i).clockRel().value(),
                  b.p.gpu(i).clockRel().value())
            << "device " << i << " step " << step;
        ASSERT_EQ(a.p.gpu(i).throttleReason(), b.p.gpu(i).throttleReason());
        const auto& ta = a.p.gpu(i).tempStats();
        const auto& tb = b.p.gpu(i).tempStats();
        ASSERT_EQ(ta.mean(), tb.mean()) << "device " << i << " step " << step;
        ASSERT_EQ(ta.max(), tb.max());
        ASSERT_EQ(ta.min(), tb.min());
        ASSERT_EQ(ta.duration(), tb.duration());
    }
    ASSERT_EQ(a.p.counters().ticks, b.p.counters().ticks) << "step " << step;
    ASSERT_EQ(a.p.counters().deviceEvals, b.p.counters().deviceEvals);
    ASSERT_EQ(a.p.counters().clockChanges, b.p.counters().clockChanges);
    ASSERT_EQ(a.s.queue().numPopped(), b.s.queue().numPopped())
        << "step " << step;
    ASSERT_EQ(a.clocks.calls, b.clocks.calls) << "step " << step;
    ASSERT_EQ(a.samples, b.samples) << "step " << step;
    for (TickerTwinSide* side : {&a, &b}) {
        side->clocks.calls.clear();
        side->samples.clear();
    }
}

void
expectFastForwardTracksTicker(const GpuSpec& spec,
                              const ChassisLayout& layout, int nodes,
                              std::uint64_t seed)
{
    TickerTwinSide ff(spec, layout, nodes, true);
    TickerTwinSide tw(spec, layout, nodes, false);
    const sim::Tick period = sim::toTicks(calib::kGovernorPeriodSec);
    Rng rng(seed);
    const auto n = static_cast<std::uint64_t>(ff.p.numGpus());
    sim::Tick at = 0;
    for (int step = 1; step <= 3000; ++step) {
        // Busy stretches, then a long idle tail that cools every
        // device through the governor bands.
        int actions = step < 2000 && rng.uniform() < 0.3
                          ? 1 + static_cast<int>(rng.below(6))
                          : 0;
        for (int k = 0; k < actions; ++k) {
            TickerTwinSide::Action a{
                static_cast<int>(rng.below(12) < 6 ? rng.below(2)
                                                   : rng.below(6)),
                static_cast<int>(rng.below(n)), rng.uniform()};
            double where = rng.uniform();
            if (where < 0.4) {
                ff.apply(a);
                tw.apply(a);
                continue;
            }
            // Inside an event, on the grid or off it.
            sim::Tick now = ff.s.now();
            sim::Tick d = where < 0.7
                              ? (now / period + 1 + rng.below(20)) * period -
                                    now
                              : rng.below(40 * period);
            for (TickerTwinSide* side : {&ff, &tw})
                side->s.schedule(d, [side, a] { side->apply(a); });
        }
        if (step == 1200) {
            ff.p.resetStats();
            tw.p.resetStats();
        }
        if (step == 2000) {
            for (TickerTwinSide* side : {&ff, &tw})
                side->endAll();
        }
        at += rng.below(4) == 0 ? rng.below(400 * period)
                                : rng.below(20 * period);
        ff.s.runUntil(at);
        tw.s.runUntil(at);
        expectTwinTickersEqual(ff, tw, step);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    ff.p.finishStats();
    tw.p.finishStats();
    expectTwinTickersEqual(ff, tw, 0);
    EXPECT_EQ(tw.s.numFastForwarded(), 0u);
    EXPECT_GT(ff.p.counters().clockChanges, 0u);
    // Over a quarter of the ticks (mostly in the idle tail) were
    // fast-forwarded, not dispatched.
    EXPECT_GT(ff.s.numFastForwarded(), ff.p.counters().ticks / 4)
        << ff.s.numFastForwarded() << " of " << ff.p.counters().ticks;
}

TEST(Platform, FastForwardedTicksMatchPeriodicTickerHgx)
{
    for (std::uint64_t seed : {1, 2})
        expectFastForwardTracksTicker(h100Spec(), hgxLayout(), 2, seed);
}

TEST(Platform, FastForwardedTicksMatchPeriodicTickerMi250)
{
    expectFastForwardTracksTicker(mi250GcdSpec(), mi250Layout(), 1, 3);
}

} // namespace
