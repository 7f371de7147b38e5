/**
 * @file
 * Tests for the datacenter-scale projector (paper Sec. 7.1
 * methodology) — DP scaling arithmetic, bandwidth sensitivity,
 * strong-scaling behaviour (never above ideal at any bandwidth
 * multiplier), and input validation (no NaN/Inf escapes).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "scale/projector.hh"

namespace {

using namespace charllm;
using namespace charllm::scale;

ProjectionInput
baseInput()
{
    ProjectionInput in;
    in.computeSeconds = Seconds(20.0);
    in.intraCommSeconds = Seconds(3.0);
    in.interCommSeconds = Seconds(2.0);
    in.gradBytesPerGpu = Bytes(10e9);
    in.baseGpus = 32;
    in.gpusPerNode = 8;
    in.tokensPerIteration = 262144.0;
    in.nodeBandwidth = BytesPerSec(12.5e9);
    in.messageLatency = Seconds(18e-6);
    return in;
}

TEST(Projector, Dp1HasNoAllReduce)
{
    Projector p(baseInput());
    auto point = p.project(1);
    EXPECT_DOUBLE_EQ(point.allReduceSeconds.value(), 0.0);
    EXPECT_NEAR(point.iterationSeconds.value(), 25.0, 1e-9);
    EXPECT_DOUBLE_EQ(point.strongScalingEfficiency, 1.0);
    EXPECT_EQ(point.totalGpus, 32);
}

TEST(Projector, ComputeDividesByDp)
{
    Projector p(baseInput());
    auto point = p.project(8);
    EXPECT_NEAR(point.computeSeconds.value(), 20.0 / 8.0, 1e-12);
    EXPECT_EQ(point.totalGpus, 256);
}

TEST(Projector, AllReduceGrowsWithDp)
{
    Projector p(baseInput());
    EXPECT_LT(p.project(2).allReduceSeconds.value(),
              p.project(64).allReduceSeconds.value());
}

TEST(Projector, StrongScalingDegradesAtLargeDp)
{
    Projector p(baseInput());
    auto small = p.project(2);
    auto large = p.project(256); // 8K GPUs
    EXPECT_GT(small.strongScalingEfficiency,
              large.strongScalingEfficiency);
    EXPECT_LT(large.strongScalingEfficiency, 0.5);
}

TEST(Projector, StrongScalingCollapseMatchesPaperScale)
{
    // Paper: at 100 Gbps, strong scaling drops by up to ~9.7x vs
    // ideal at 8K GPUs; at 800 Gbps it recovers by up to ~4.2x.
    Projector p(baseInput());
    auto at100 = p.project(256, 1.0);
    double collapse = 1.0 / at100.strongScalingEfficiency;
    EXPECT_GT(collapse, 4.0);
    EXPECT_LT(collapse, 25.0);
    auto at800 = p.project(256, 8.0);
    double recovery = at800.strongScalingEfficiency /
                      at100.strongScalingEfficiency;
    EXPECT_GT(recovery, 2.0);
    EXPECT_LT(recovery, 9.0);
}

TEST(Projector, EfficiencyNeverExceedsIdeal)
{
    // Regression: the ideal time used to come from the unscaled
    // baseline, so any bandwidth_multiplier > 1 reported super-ideal
    // "efficiency" above 1.0. The ideal must see the same multiplier
    // as the projected point.
    Projector p(baseInput());
    for (double bwm : {1.0, 8.0}) {
        for (int dp : {1, 2, 8, 64, 256}) {
            auto point = p.project(dp, bwm);
            EXPECT_LE(point.strongScalingEfficiency, 1.0)
                << "dp=" << dp << " bwm=" << bwm;
            EXPECT_GT(point.strongScalingEfficiency, 0.0)
                << "dp=" << dp << " bwm=" << bwm;
        }
        // dp=1 against its own bandwidth-scaled baseline is exact.
        EXPECT_DOUBLE_EQ(p.project(1, bwm).strongScalingEfficiency,
                         1.0);
    }
}

TEST(Projector, BandwidthMultiplierShrinksInterComm)
{
    Projector p(baseInput());
    auto slow = p.project(4, 1.0);
    auto fast = p.project(4, 8.0);
    EXPECT_LT(fast.iterationSeconds.value(),
              slow.iterationSeconds.value());
    EXPECT_LT(fast.allReduceSeconds.value(),
              slow.allReduceSeconds.value());
}

TEST(Projector, PerGpuThroughputDecreasesWithScale)
{
    Projector p(baseInput());
    EXPECT_GT(p.project(1).perGpuTokensPerSecond,
              p.project(64).perGpuTokensPerSecond);
}

TEST(Projector, TotalThroughputStillImprovesModerately)
{
    Projector p(baseInput());
    EXPECT_GT(p.project(8).tokensPerSecond,
              p.project(1).tokensPerSecond);
}

TEST(Projector, SweepPreservesOrder)
{
    Projector p(baseInput());
    std::vector<ProjectionPoint> points;
    for (int dp : {1, 4, 16, 64, 256})
        points.push_back(p.project(dp));
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_GT(points[i].totalGpus, points[i - 1].totalGpus);
        EXPECT_LE(points[i].strongScalingEfficiency,
                  points[i - 1].strongScalingEfficiency + 1e-9);
    }
}

TEST(Projector, OutputsAreAlwaysFinite)
{
    Projector p(baseInput());
    for (int dp : {1, 2, 256}) {
        auto point = p.project(dp, 8.0);
        EXPECT_TRUE(std::isfinite(point.iterationSeconds.value()));
        EXPECT_TRUE(std::isfinite(point.tokensPerSecond));
        EXPECT_TRUE(std::isfinite(point.perGpuTokensPerSecond));
        EXPECT_TRUE(std::isfinite(point.strongScalingEfficiency));
    }
}

// ---- input validation (used to propagate NaN/Inf into reports) ------

TEST(ProjectorDeath, RejectsAllZeroTimes)
{
    auto in = baseInput();
    in.computeSeconds = Seconds(0.0);
    in.intraCommSeconds = Seconds(0.0);
    in.interCommSeconds = Seconds(0.0);
    EXPECT_DEATH(Projector p(in), "all-zero baseline");
}

TEST(ProjectorDeath, RejectsNegativeTimes)
{
    auto in = baseInput();
    in.interCommSeconds = Seconds(-1.0);
    EXPECT_DEATH(Projector p(in), "negative baseline time");
}

TEST(ProjectorDeath, RejectsNonFiniteInput)
{
    auto in = baseInput();
    in.computeSeconds = Seconds(std::nan(""));
    EXPECT_DEATH(Projector p(in), "non-finite projection input");
    in = baseInput();
    in.gradBytesPerGpu = Bytes(HUGE_VAL);
    EXPECT_DEATH(Projector p(in), "non-finite projection input");
}

TEST(ProjectorDeath, RejectsBadCountsAndRates)
{
    auto in = baseInput();
    in.baseGpus = 0;
    EXPECT_DEATH(Projector p(in), "invalid GPU counts");
    in = baseInput();
    in.tokensPerIteration = 0.0;
    EXPECT_DEATH(Projector p(in), "tokens per iteration");
    in = baseInput();
    in.nodeBandwidth = BytesPerSec(0.0);
    EXPECT_DEATH(Projector p(in), "node bandwidth");
    in = baseInput();
    in.messageLatency = Seconds(-1e-6);
    EXPECT_DEATH(Projector p(in), "negative message latency");
}

TEST(ProjectorDeath, RejectsBadProjectionPoint)
{
    Projector p(baseInput());
    EXPECT_DEATH(p.project(0), "invalid projection point");
    EXPECT_DEATH(p.project(2, 0.0), "invalid projection point");
    EXPECT_DEATH(p.project(2, std::nan("")),
                 "invalid projection point");
}

} // namespace
