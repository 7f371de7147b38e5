/**
 * @file
 * Tests for the telemetry layer: Zeus-like sampler, Chakra-like
 * kernel trace, and the sim-NVML facade.
 */

#include <gtest/gtest.h>

#include "hw/platform.hh"
#include "net/flow_network.hh"
#include "obs/trace_builder.hh"
#include "sim/simulator.hh"
#include "telemetry/sampler.hh"
#include "telemetry/simnvml.hh"
#include "telemetry/trace.hh"

namespace {

using namespace charllm;
using namespace charllm::telemetry;

struct TelemetryFixture : ::testing::Test
{
    TelemetryFixture()
        : topo(net::Topology::hgxParams(1)),
          plat(sim, hw::h200Spec(), hw::hgxLayout(), 1),
          netw(sim, topo)
    {
    }

    sim::Simulator sim;
    net::Topology topo;
    hw::Platform plat;
    net::FlowNetwork netw;
};

TEST_F(TelemetryFixture, SamplerCollectsPeriodicSamples)
{
    Sampler sampler(plat, netw, Seconds(0.01));
    plat.start();
    // Keep the simulation alive for ~0.5 s with a busy GPU.
    auto tok = plat.gpu(0).kernelBegin(hw::KernelClass::Gemm, 1.0, 0.0);
    sim.schedule(sim::toTicks(0.5), [] {});
    sim.run();
    plat.gpu(0).kernelEnd(tok, sim.nowSeconds());

    ASSERT_GE(sampler.series(0).size(), 40u);
    // GPU 0 busy, GPU 2 idle: power ordering visible in samples.
    const auto& busy = sampler.series(0).back();
    const auto& idle = sampler.series(2).back();
    EXPECT_GT(busy.powerWatts.value(), idle.powerWatts.value() + 200.0);
    EXPECT_GT(busy.tempC, idle.tempC);
}

TEST_F(TelemetryFixture, SamplerCapturesLinkRates)
{
    Sampler sampler(plat, netw, Seconds(0.002));
    plat.start();
    netw.transfer(0, 1, Bytes(9e9), [] {}); // ~20 ms on NVLink
    sim.run();
    bool saw_rate = false;
    for (const auto& s : sampler.series(0))
        saw_rate |= s.scaleUpRate.value() > 100e9;
    EXPECT_TRUE(saw_rate);
}

TEST_F(TelemetryFixture, SamplerCsvExport)
{
    Sampler sampler(plat, netw, Seconds(0.01));
    plat.start();
    sim.schedule(sim::toTicks(0.05), [] {});
    sim.run();
    auto csv = sampler.toCsv();
    EXPECT_EQ(csv.numColumns(), 9u);
    EXPECT_GT(csv.numRows(), 8u * 3u);
    EXPECT_NE(csv.str().find("power_w"), std::string::npos);
    EXPECT_NE(csv.str().find("fault"), std::string::npos);
}

TEST_F(TelemetryFixture, SamplerClearDropsHistory)
{
    Sampler sampler(plat, netw, Seconds(0.01));
    sampler.sampleNow();
    EXPECT_GT(sampler.numSamples(), 0u);
    sampler.clear();
    EXPECT_EQ(sampler.numSamples(), 0u);
}

TEST_F(TelemetryFixture, SamplerDecimatesAtRetentionCap)
{
    // Cap of 16 with ~100 ticks: the stride must double (repeatedly)
    // and the retained series stay bounded and uniformly spaced.
    Sampler sampler(plat, netw, Seconds(0.01), 16);
    plat.start();
    sim.schedule(sim::toTicks(1.0), [] {});
    sim.run();

    EXPECT_GT(sampler.keepEvery(), 1u);
    EXPECT_EQ(sampler.maxSamplesPerGpu(), 16u);
    const auto& series = sampler.series(0);
    ASSERT_GE(series.size(), 8u);
    EXPECT_LE(series.size(), 16u);
    // Uniform spacing: stride ticker periods between kept samples.
    double expected =
        0.01 * static_cast<double>(sampler.keepEvery());
    for (std::size_t i = 1; i < series.size(); ++i)
        EXPECT_NEAR(series[i].time.value() -
                        series[i - 1].time.value(),
                    expected, 1e-9);
    // Coverage still spans (nearly) the whole run.
    EXPECT_GT(series.back().time.value(), 0.9);
}

TEST_F(TelemetryFixture, SamplerUnboundedWhenCapIsZero)
{
    Sampler sampler(plat, netw, Seconds(0.01), 0);
    plat.start();
    sim.schedule(sim::toTicks(1.0), [] {});
    sim.run();
    EXPECT_EQ(sampler.keepEvery(), 1u);
    EXPECT_GE(sampler.series(0).size(), 99u);
}

// ---- trace ---------------------------------------------------------------------

TEST(KernelTrace, RecordsAndFilters)
{
    KernelTrace trace;
    trace.record(0, hw::KernelClass::Gemm, "fwd", 0.0, 0.5);
    trace.record(1, hw::KernelClass::AllReduce, "ar", 0.1, 0.2);
    trace.record(0, hw::KernelClass::Gemm, "fwd", 1.0, 0.25);
    EXPECT_EQ(trace.size(), 3u);
    auto b = trace.breakdown(0);
    EXPECT_DOUBLE_EQ(b[hw::KernelClass::Gemm], 0.75);
    auto late = trace.breakdown(0, 0.9);
    EXPECT_DOUBLE_EQ(late[hw::KernelClass::Gemm], 0.25);
}

/** The trace's Chrome/Perfetto export (obs::TraceBuilder). */
std::string
chromeJson(const KernelTrace& trace)
{
    obs::TraceBuilder builder;
    builder.addKernels(trace);
    return builder.toJson();
}

TEST(KernelTrace, ChromeJsonWellFormed)
{
    KernelTrace trace;
    trace.record(3, hw::KernelClass::SendRecv, "p2p", 0.5, 0.1);
    std::string json = chromeJson(trace);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // One Chrome process per device.
    EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"SendRecv\""), std::string::npos);
}

TEST(KernelTrace, NamesAreEscaped)
{
    KernelTrace trace;
    trace.record(0, hw::KernelClass::Gemm, "layer \"0\" attn", 0.0, 0.1);
    trace.record(0, hw::KernelClass::Gemm, "tail\n", 0.2, 0.1);
    EXPECT_STREQ(trace.all()[0].name, "layer \"0\" attn");
    EXPECT_STREQ(trace.all()[1].name, "tail\n");
    // Export escapes the quotes and the newline.
    std::string json = chromeJson(trace);
    EXPECT_NE(json.find("layer \\\"0\\\" attn"), std::string::npos);
    EXPECT_NE(json.find("tail\\n"), std::string::npos);
    EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(KernelTrace, FaultSpansAndHorizon)
{
    KernelTrace trace;
    EXPECT_DOUBLE_EQ(trace.horizonSec(), 0.0);
    trace.record(0, hw::KernelClass::Gemm, "k", 0.0, 1.5);
    trace.recordFault(1, "hot-inlet", 1.0, 2.0);
    ASSERT_EQ(trace.faultSpans().size(), 1u);
    EXPECT_STREQ(trace.faultSpans()[0].name, "hot-inlet");
    // Horizon covers the later of kernel and fault end.
    EXPECT_DOUBLE_EQ(trace.horizonSec(), 3.0);
    trace.clear();
    EXPECT_TRUE(trace.faultSpans().empty());
    EXPECT_DOUBLE_EQ(trace.horizonSec(), 0.0);
}

// ---- sim-NVML ------------------------------------------------------------------

TEST_F(TelemetryFixture, NvmlFacadeReadsDeviceState)
{
    using namespace simnvml;
    unsigned int count = 0;
    ASSERT_EQ(deviceGetCount(plat, &count), SIMNVML_SUCCESS);
    EXPECT_EQ(count, 8u);

    DeviceHandle h;
    ASSERT_EQ(deviceGetHandleByIndex(plat, 0, &h), SIMNVML_SUCCESS);

    unsigned int temp = 0, mw = 0, mhz = 0;
    EXPECT_EQ(deviceGetTemperature(h, &temp), SIMNVML_SUCCESS);
    EXPECT_NEAR(temp, 27, 3);
    EXPECT_EQ(deviceGetPowerUsage(h, &mw), SIMNVML_SUCCESS);
    EXPECT_GT(mw, 50000u); // idle ~75 W in milliwatts
    EXPECT_EQ(deviceGetClockInfo(h, &mhz), SIMNVML_SUCCESS);
    EXPECT_NEAR(mhz, 1830, 200);

    // One second of GEMM accrues energy.
    auto tok = plat.gpu(0).kernelBegin(hw::KernelClass::Gemm, 1.0, 0.0);
    plat.gpu(0).kernelEnd(tok, 1.0);
    std::uint64_t mj = 0;
    EXPECT_EQ(deviceGetTotalEnergyConsumption(h, &mj),
              SIMNVML_SUCCESS);
    EXPECT_GT(mj, 0u);
}

TEST_F(TelemetryFixture, NvmlFacadeRejectsBadArguments)
{
    using namespace simnvml;
    DeviceHandle h;
    EXPECT_EQ(deviceGetHandleByIndex(plat, 99, &h),
              SIMNVML_ERROR_NOT_FOUND);
    EXPECT_EQ(deviceGetCount(plat, nullptr),
              SIMNVML_ERROR_INVALID_ARGUMENT);
    DeviceHandle invalid;
    unsigned int temp;
    EXPECT_EQ(deviceGetTemperature(invalid, &temp),
              SIMNVML_ERROR_INVALID_ARGUMENT);
}

} // namespace
