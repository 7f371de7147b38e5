#include "telemetry/sampler.hh"

#include "common/logging.hh"
#include "sim/event_queue.hh"

namespace charllm {
namespace telemetry {

void
addSamplerProblems(Problems& problems, double period_sec,
                   std::size_t max_samples_per_gpu)
{
    require(problems, sim::fitsTick(period_sec, sim::kMinPeriodTicks),
            "samplePeriodSec must be positive: one tick (1 ns) to a "
            "Tick's range (1.8e10 s) (got ", period_sec, ")");
    require(problems, max_samples_per_gpu != 1,
            "maxSamplesPerGpu must be 0 (unbounded) or >= 2");
}

Sampler::Sampler(hw::Platform& platform, net::FlowNetwork& netw,
                 Seconds period, std::size_t max_samples_per_gpu)
    : plat(platform), network(netw), periodSec(period.value()),
      maxPerGpu(max_samples_per_gpu)
{
    Problems problems;
    addSamplerProblems(problems, periodSec, maxPerGpu);
    CHARLLM_ASSERT(problems.empty(), problems.front());
    perGpu.resize(static_cast<std::size_t>(plat.numGpus()));
    plat.simulator().every(sim::toTicks(periodSec),
                           [this] { sampleNow(); });
}

void
Sampler::sampleNow()
{
    // Decimation stride: once the cap has been hit, only every
    // stride-th tick is retained, keeping new samples aligned with
    // the (already thinned) history.
    if (tickCount++ % stride != 0)
        return;
    double now = plat.simulator().nowSeconds();
    hw::TrafficClass up =
        network.topology().params().chiplet ? hw::TrafficClass::Xgmi
                                            : hw::TrafficClass::NvLink;
    for (int i = 0; i < plat.numGpus(); ++i) {
        const hw::Gpu& gpu = plat.gpu(i);
        Sample s;
        s.time = Seconds(now);
        s.powerWatts = gpu.power();
        s.tempC = plat.temperature(i);
        s.clockGhz = gpu.clockGhz();
        s.occupancy = gpu.occupancy();
        s.pcieRate = network.gpuRate(i, hw::TrafficClass::Pcie);
        s.scaleUpRate = network.gpuRate(i, up);
        if (faultAnnotator)
            s.fault = faultAnnotator(i);
        perGpu[static_cast<std::size_t>(i)].push_back(s);
    }
    if (maxPerGpu != 0 && !perGpu.empty() &&
        perGpu.front().size() >= maxPerGpu)
        decimate();
}

void
Sampler::decimate()
{
    // Keep even indices: those are exactly the ticks divisible by the
    // doubled stride, so retained and future samples stay uniformly
    // spaced.
    for (auto& v : perGpu) {
        std::size_t keep = 0;
        for (std::size_t i = 0; i < v.size(); i += 2)
            v[keep++] = v[i];
        v.resize(keep);
    }
    stride *= 2;
}

void
Sampler::clear()
{
    for (auto& v : perGpu)
        v.clear();
}

const std::vector<Sample>&
Sampler::series(int gpu) const
{
    CHARLLM_CHECK(gpu >= 0 &&
                      static_cast<std::size_t>(gpu) < perGpu.size(),
                  "gpu id ", gpu, " out of range [0, ", perGpu.size(),
                  ")");
    return perGpu[static_cast<std::size_t>(gpu)];
}

std::size_t
Sampler::numSamples() const
{
    std::size_t n = 0;
    for (const auto& v : perGpu)
        n += v.size();
    return n;
}

CsvWriter
Sampler::toCsv() const
{
    CsvWriter csv;
    csv.header({"time_s", "gpu", "power_w", "temp_c", "clock_ghz",
                "occupancy", "pcie_bps", "scaleup_bps", "fault"});
    for (std::size_t g = 0; g < perGpu.size(); ++g) {
        for (const Sample& s : perGpu[g]) {
            csv.beginRow();
            csv.cell(s.time.value());
            csv.cell(static_cast<int>(g));
            csv.cell(s.powerWatts.value());
            csv.cell(s.tempC.value());
            csv.cell(s.clockGhz);
            csv.cell(s.occupancy);
            csv.cell(s.pcieRate.value());
            csv.cell(s.scaleUpRate.value());
            csv.cell(std::string(s.fault));
            csv.endRow();
        }
    }
    return csv;
}

} // namespace telemetry
} // namespace charllm
