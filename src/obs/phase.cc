#include "obs/phase.hh"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "common/intervals.hh"
#include "common/strings.hh"

namespace charllm {
namespace obs {

namespace {

/** One classified segment of a device's timeline. */
struct Segment
{
    double startSec = 0.0;
    double endSec = 0.0;
    Phase phase = Phase::Idle;
};

} // namespace

const char*
phaseName(Phase phase)
{
    switch (phase) {
    case Phase::Compute:
        return "compute";
    case Phase::ExposedComm:
        return "exposed_comm";
    case Phase::Bubble:
        return "bubble";
    case Phase::Idle:
        return "idle";
    }
    return "unknown";
}

double
GpuPhaseBreakdown::totalEnergyJ() const
{
    double total = 0.0;
    for (const auto& slice : phases)
        total += slice.energyJ;
    return total;
}

GpuPhaseBreakdown
PhaseReport::cluster() const
{
    GpuPhaseBreakdown sum;
    sum.gpu = -1;
    for (const auto& g : gpus) {
        for (std::size_t p = 0; p < kNumPhases; ++p) {
            sum.phases[p].seconds += g.phases[p].seconds;
            sum.phases[p].energyJ += g.phases[p].energyJ;
        }
    }
    return sum;
}

double
PhaseReport::totalEnergyJ() const
{
    double total = 0.0;
    for (const auto& g : gpus)
        total += g.totalEnergyJ();
    return total;
}

CsvWriter
PhaseReport::toCsv() const
{
    CsvWriter csv;
    csv.header({"gpu", "phase", "seconds", "energy_j", "avg_power_w"});
    auto row = [&csv](const std::string& gpu, Phase phase,
                      const PhaseSlice& slice) {
        csv.beginRow();
        csv.cell(gpu);
        csv.cell(std::string(phaseName(phase)));
        csv.cell(slice.seconds);
        csv.cell(slice.energyJ);
        csv.cell(slice.avgPowerW());
        csv.endRow();
    };
    for (const auto& g : gpus) {
        for (std::size_t p = 0; p < kNumPhases; ++p)
            row(std::to_string(g.gpu), static_cast<Phase>(p),
                g.phases[p]);
    }
    GpuPhaseBreakdown total = cluster();
    for (std::size_t p = 0; p < kNumPhases; ++p)
        row("cluster", static_cast<Phase>(p), total.phases[p]);
    return csv;
}

std::string
PhaseReport::toJson() const
{
    std::ostringstream os;
    auto breakdown = [&os](const GpuPhaseBreakdown& g) {
        os << '{';
        for (std::size_t p = 0; p < kNumPhases; ++p) {
            if (p != 0)
                os << ',';
            os << '"' << phaseName(static_cast<Phase>(p))
               << "\":{\"seconds\":"
               << formatDouble(g.phases[p].seconds, 17)
               << ",\"energy_j\":"
               << formatDouble(g.phases[p].energyJ, 17)
               << ",\"avg_power_w\":"
               << formatDouble(g.phases[p].avgPowerW(), 17) << '}';
        }
        os << '}';
    };
    os << "{\"window\":{\"start_sec\":"
       << formatDouble(windowStartSec, 17)
       << ",\"end_sec\":" << formatDouble(windowEndSec, 17)
       << "},\"gpus\":[";
    for (std::size_t i = 0; i < gpus.size(); ++i) {
        if (i != 0)
            os << ',';
        os << "{\"gpu\":" << gpus[i].gpu << ",\"phases\":";
        breakdown(gpus[i]);
        os << '}';
    }
    os << "],\"cluster\":";
    breakdown(cluster());
    os << ",\"total_energy_j\":" << formatDouble(totalEnergyJ(), 17)
       << '}';
    return os.str();
}

PhaseReport
attributePhases(
    const telemetry::KernelTrace& trace,
    const std::vector<std::vector<telemetry::Sample>>& series,
    double window_start, double window_end)
{
    // Device universe: every device that ran a kernel plus every
    // sampled series slot.
    int maxDevice = static_cast<int>(series.size()) - 1;
    for (const auto& e : trace.all())
        maxDevice = std::max(maxDevice, e.device);

    PhaseReport report;
    report.windowStartSec = window_start;
    if (window_end < 0.0) {
        window_end = trace.horizonSec();
        for (const auto& s : series) {
            if (!s.empty())
                window_end =
                    std::max(window_end, s.back().time.value());
        }
    }
    report.windowEndSec = window_end;
    if (maxDevice < 0 || window_end <= window_start)
        return report;

    // Per-device compute/comm interval unions plus the global
    // "anything running anywhere" union (drives Bubble vs Idle).
    std::vector<IntervalList> compute(maxDevice + 1);
    std::vector<IntervalList> comm(maxDevice + 1);
    IntervalList anyActive;
    for (const auto& e : trace.all()) {
        Interval iv{e.startSec, e.startSec + e.durSec};
        if (hw::isComputeClass(e.cls))
            compute[e.device].push_back(iv);
        else
            comm[e.device].push_back(iv);
        anyActive.push_back(iv);
    }
    for (auto& list : compute)
        mergeIntervals(list);
    for (auto& list : comm)
        mergeIntervals(list);
    mergeIntervals(anyActive);

    // The global union's cuts are every device's; each device merges
    // them with its own two lists. All three ascend strictly (merged
    // unions have strictly ascending boundaries), so a linear union
    // replaces sorting.
    std::vector<double> anyCuts;
    addCuts(anyActive, window_start, window_end, anyCuts);
    std::vector<double> computeCuts, commCuts, ownCuts, cuts;
    std::vector<Segment> segments;

    report.gpus.resize(maxDevice + 1);
    for (int dev = 0; dev <= maxDevice; ++dev) {
        GpuPhaseBreakdown& out = report.gpus[dev];
        out.gpu = dev;

        // Subdivide the window at every boundary of the three unions;
        // inside one segment the phase is constant, so classifying
        // the midpoint classifies the whole segment.
        computeCuts.clear();
        commCuts.clear();
        ownCuts.clear();
        cuts.clear();
        addCuts(compute[dev], window_start, window_end, computeCuts);
        addCuts(comm[dev], window_start, window_end, commCuts);
        std::set_union(computeCuts.begin(), computeCuts.end(),
                       commCuts.begin(), commCuts.end(),
                       std::back_inserter(ownCuts));
        cuts.push_back(window_start);
        std::set_union(ownCuts.begin(), ownCuts.end(), anyCuts.begin(),
                       anyCuts.end(), std::back_inserter(cuts));
        cuts.push_back(window_end);

        // The midpoints ascend, so each union is walked once.
        IntervalCursor inCompute(compute[dev]);
        IntervalCursor inComm(comm[dev]);
        IntervalCursor inAny(anyActive);
        segments.clear();
        for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
            double a = cuts[i];
            double b = cuts[i + 1];
            double mid = a + (b - a) / 2.0;
            Phase phase = Phase::Idle;
            if (inCompute.covers(mid))
                phase = Phase::Compute;
            else if (inComm.covers(mid))
                phase = Phase::ExposedComm;
            else if (inAny.covers(mid))
                phase = Phase::Bubble;
            segments.push_back(Segment{a, b, phase});
            out.phases[static_cast<std::size_t>(phase)].seconds +=
                b - a;
        }

        // Energy: every joule of the sampler series inside the window
        // lands in exactly one slice, so per-phase energies sum to the
        // sampler integral exactly.
        if (dev >= static_cast<int>(series.size()))
            continue;
        telemetry::splitSampleEnergy(
            series[dev], window_start, window_end, segments,
            [](double) {},
            [&out](const Segment& segment, double joules) {
                out.phases[static_cast<std::size_t>(segment.phase)]
                    .energyJ += joules;
            });
    }
    return report;
}

} // namespace obs
} // namespace charllm
