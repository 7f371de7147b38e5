/**
 * @file
 * Zeus-like telemetry sampler: periodically records per-GPU power,
 * temperature, clock, occupancy, and instantaneous interconnect rates
 * (the paper's modified Zeus collects exactly this set via NVML /
 * AMD-SMI; here the quantities come from the simulation models).
 */

#ifndef CHARLLM_TELEMETRY_SAMPLER_HH
#define CHARLLM_TELEMETRY_SAMPLER_HH

#include <algorithm>
#include <functional>
#include <vector>

#include "common/csv.hh"
#include "hw/platform.hh"
#include "net/flow_network.hh"

namespace charllm {
namespace telemetry {

/** Append to @p problems each range a Sampler of @p period_sec and
 *  @p max_samples_per_gpu breaks. */
void addSamplerProblems(Problems& problems, double period_sec,
                        std::size_t max_samples_per_gpu);

/** One telemetry sample of one GPU. */
struct Sample
{
    Seconds time;             //!< simulated time since start
    Watts powerWatts;
    Celsius tempC;
    double clockGhz = 0.0;
    double occupancy = 0.0;
    BytesPerSec pcieRate;     //!< rate through the GPU's PCIe port
    BytesPerSec scaleUpRate;  //!< rate through NVLink/xGMI ports
    const char* fault = "";   //!< active fault label ("" if healthy)
};

/**
 * Split one series' energy over @p segments, a time-sorted partition
 * of [start, end] whose elements carry startSec and endSec. Sample i
 * covers (t_{i-1}, t_i] at P_i (t_{-1} = start), clipped to the
 * window, and each covered piece is split over the segments it spans,
 * so every joule of the window lands in exactly one segment. Calls
 * @p on_piece(joules) once per covered piece and then
 * @p on_split(segment, joules) once per overlapped segment, in time
 * order.
 */
template <class Segment, class OnPiece, class OnSplit>
void
splitSampleEnergy(const std::vector<Sample>& series, double start,
                  double end, const std::vector<Segment>& segments,
                  OnPiece on_piece, OnSplit on_split)
{
    double prev = start;
    std::size_t seg = 0;
    for (const Sample& sample : series) {
        double t = sample.time.value();
        double lo = std::max(prev, start);
        double hi = std::min(t, end);
        prev = t;
        if (hi <= lo)
            continue;
        double power = sample.powerWatts.value();
        on_piece(power * (hi - lo));
        while (seg < segments.size() && segments[seg].endSec <= lo)
            ++seg;
        for (std::size_t k = seg;
             k < segments.size() && segments[k].startSec < hi; ++k) {
            double overlap = std::min(hi, segments[k].endSec) -
                             std::max(lo, segments[k].startSec);
            if (overlap > 0.0)
                on_split(segments[k], power * overlap);
        }
        if (t >= end)
            break;
    }
}

/**
 * Periodic sampler. Construct before the engine runs; samples
 * accumulate for the lifetime of the simulation.
 */
class Sampler
{
  public:
    /**
     * Default per-GPU retention cap (2^20 samples ≈ 2.9 simulated
     * hours at 10 ms granularity, ~64 MiB for an 8-GPU node). Once a
     * series reaches the cap the sampler decimates: it drops every
     * other retained sample and doubles its keep-stride, so memory
     * stays bounded on week-long simulated runs while the series
     * still spans the whole run at (progressively coarser) uniform
     * granularity.
     */
    static constexpr std::size_t kDefaultMaxSamplesPerGpu = 1u << 20;

    /**
     * @param period sampling period in simulated time (the paper's
     *        Zeus extension samples at ~10 ms granularity)
     * @param max_samples_per_gpu retention cap before decimation
     *        kicks in; 0 disables decimation (unbounded growth)
     */
    Sampler(hw::Platform& platform, net::FlowNetwork& network,
            Seconds period = Seconds(0.01),
            std::size_t max_samples_per_gpu = kDefaultMaxSamplesPerGpu);

    /** Take one sample of every GPU now (also driven by the ticker). */
    void sampleNow();

    /** Current keep-stride: 1 until the cap is first hit, then
     *  doubling with each decimation (samples are keepEvery() ticker
     *  periods apart). */
    std::size_t keepEvery() const { return stride; }

    /** Per-GPU retention cap (0 = unbounded). */
    std::size_t maxSamplesPerGpu() const { return maxPerGpu; }

    /**
     * Install a cause-attribution hook: called per GPU at sample time,
     * returning the label of the fault currently affecting it (or ""),
     * e.g. faults::FaultInjector::activeGpuFault. The returned pointer
     * must outlive the sampler (static-duration labels).
     */
    void
    setFaultAnnotator(std::function<const char*(int)> annotator)
    {
        faultAnnotator = std::move(annotator);
    }

    /** Discard all samples collected so far (e.g. after warmup). */
    void clear();

    const std::vector<Sample>& series(int gpu) const;
    Seconds period() const { return Seconds(periodSec); }
    std::size_t numSamples() const;

    /** Export all series as a Zeus-style CSV. */
    CsvWriter toCsv() const;

  private:
    /** Halve retained history and double the keep-stride. */
    void decimate();

    hw::Platform& plat;
    net::FlowNetwork& network;
    double periodSec;
    std::size_t maxPerGpu;
    std::size_t stride = 1;    //!< record every stride-th tick
    std::size_t tickCount = 0; //!< ticker firings seen so far
    std::vector<std::vector<Sample>> perGpu;
    std::function<const char*(int)> faultAnnotator;
};

} // namespace telemetry
} // namespace charllm

#endif // CHARLLM_TELEMETRY_SAMPLER_HH
