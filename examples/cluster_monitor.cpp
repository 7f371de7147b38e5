/**
 * @file
 * Cluster monitoring demo: runs a training job while collecting
 * telemetry the way the paper's modified Zeus does — through the
 * (simulated) NVML API and a periodic sampler — then writes the
 * Zeus-style CSV, the unified Perfetto timeline (kernel spans + fault
 * overlays + counter tracks + iteration markers + causal
 * critical-path segments on one clock), a phase/energy attribution
 * summary, and the simulator's self-profiling metrics dump.
 *
 * Outputs: ./telemetry.csv, ./unified_trace.json, ./metrics.json
 */

#include <cstdio>
#include <fstream>

#include "coll/collective_engine.hh"
#include "common/strings.hh"
#include "common/table.hh"
#include "core/cluster.hh"
#include "hw/platform.hh"
#include "net/flow_network.hh"
#include "obs/critical_path.hh"
#include "obs/metrics.hh"
#include "obs/phase.hh"
#include "obs/trace_builder.hh"
#include "parallel/rank_mapper.hh"
#include "runtime/engine.hh"
#include "sim/simulator.hh"
#include "telemetry/sampler.hh"
#include "telemetry/simnvml.hh"
#include "telemetry/trace.hh"

using namespace charllm;

int
main()
{
    // Assemble the stack explicitly (what core::Experiment automates)
    // so the telemetry integration points are visible.
    auto cluster = core::h200Cluster(1);
    sim::Simulator simulator;
    net::Topology topology(cluster.network);
    hw::Platform platform(simulator, cluster.gpu, cluster.chassis,
                          cluster.numNodes);
    net::FlowNetwork network(simulator, topology);
    coll::CollectiveEngine collectives(simulator, network);

    auto m = model::gpt3_13b();
    parallel::RankMapper mapper(
        parallel::ParallelConfig::forWorld(8, 2, 4));
    runtime::TrainOptions train;
    train.globalBatchSize = 32;
    runtime::ProgramBuilder builder(m, mapper, train);
    runtime::EngineOptions eopts;
    eopts.warmupIterations = 1;
    eopts.measuredIterations = 2;
    runtime::TrainingEngine engine(platform, network, collectives,
                                   builder, eopts);

    telemetry::Sampler sampler(platform, network, Seconds(0.01));
    telemetry::KernelTrace trace;
    engine.setTraceSink([&](int dev, hw::KernelClass cls,
                            const char* name, double start,
                            double dur) {
        trace.record(dev, cls, name, start, dur);
    });
    obs::CriticalPathRecorder critpath(platform.numGpus());
    engine.setCriticalPath(&critpath);

    std::printf("Training %s on %d x %s with Zeus-style telemetry...\n",
                m.name.c_str(), platform.numGpus(),
                cluster.gpu.name.c_str());
    platform.start();
    engine.run();

    // Read final device state through the NVML facade, as a
    // monitoring agent would.
    TextTable t({"gpu", "temp(C)", "power(mW)", "sm clock(MHz)",
                 "energy(J)"});
    unsigned int count = 0;
    telemetry::simnvml::deviceGetCount(platform, &count);
    for (unsigned int i = 0; i < count; ++i) {
        telemetry::simnvml::DeviceHandle h;
        telemetry::simnvml::deviceGetHandleByIndex(platform, i, &h);
        unsigned int temp = 0, mw = 0, mhz = 0;
        std::uint64_t mj = 0;
        telemetry::simnvml::deviceGetTemperature(h, &temp);
        telemetry::simnvml::deviceGetPowerUsage(h, &mw);
        telemetry::simnvml::deviceGetClockInfo(h, &mhz);
        telemetry::simnvml::deviceGetTotalEnergyConsumption(h, &mj);
        t.addRow({std::to_string(i), std::to_string(temp),
                  std::to_string(mw), std::to_string(mhz),
                  formatFixed(static_cast<double>(mj) / 1e3, 1)});
    }
    t.print();

    std::printf("\niteration time: %s; %zu telemetry samples; %zu "
                "trace events\n",
                formatSeconds(engine.avgIterationSeconds()).c_str(),
                sampler.numSamples(), trace.size());

    if (sampler.toCsv().writeTo("telemetry.csv"))
        std::printf("wrote telemetry.csv\n");

    // The unified timeline: kernel spans, per-GPU counter tracks, and
    // iteration markers merged on the simulated clock.
    obs::TraceBuilder unified;
    unified.addKernels(trace);
    for (int g = 0; g < platform.numGpus(); ++g)
        unified.addCounters(g, sampler.series(g));
    for (const auto& span : engine.iterationSpans()) {
        std::string name = (span.warmup ? "warmup " : "iteration ") +
                           std::to_string(span.index);
        unified.addRunSpan("iteration", name, span.startSec,
                           span.endSec - span.startSec);
    }
    obs::CriticalPathReport critReport = critpath.analyze();
    for (const auto& iter : critReport.iterations) {
        for (const auto& seg : iter.segments) {
            std::string name = obs::causeClassName(seg.cause);
            if (seg.dev >= 0)
                name += " gpu" + std::to_string(seg.dev);
            unified.addRunSpan("critical_path", name, seg.startSec,
                               seg.endSec - seg.startSec);
        }
    }
    if (unified.writeTo("unified_trace.json"))
        std::printf("wrote unified_trace.json (open in Perfetto)\n");

    // Causal attribution: what the critical path is made of, averaged
    // over the measured iterations.
    std::printf("\nCritical path (mean over %d measured iterations, "
                "wall %s/iter):\n",
                critReport.measuredIterations,
                formatSeconds(critReport.meanWallSeconds).c_str());
    for (std::size_t c = 0; c < obs::kNumCauseClasses; ++c) {
        double s = critReport.meanCauseSeconds[c];
        if (s <= 0.0)
            continue;
        std::printf("  %-24s %s (%.1f%%)\n",
                    obs::causeClassName(
                        static_cast<obs::CauseClass>(c)),
                    formatSeconds(s).c_str(),
                    100.0 * s / critReport.meanWallSeconds);
    }
    int dominant = critReport.dominantDevice();
    if (dominant >= 0)
        std::printf("  dominant device: GPU%d (%s/iter on the path)\n",
                    dominant,
                    formatSeconds(
                        critReport.deviceSeconds(dominant)).c_str());

    // Phase attribution: where did the time and energy go?
    std::vector<std::vector<telemetry::Sample>> series;
    for (int g = 0; g < platform.numGpus(); ++g)
        series.push_back(sampler.series(g));
    obs::PhaseReport phases = obs::attributePhases(trace, series);
    obs::GpuPhaseBreakdown clusterPhases = phases.cluster();
    TextTable pt({"phase", "gpu-seconds", "energy(J)", "avgP(W)"});
    for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
        const auto& slice = clusterPhases.phases[p];
        pt.addRow({obs::phaseName(static_cast<obs::Phase>(p)),
                   formatFixed(slice.seconds, 3),
                   formatFixed(slice.energyJ, 1),
                   formatFixed(slice.avgPowerW(), 0)});
    }
    std::printf("\nPhase attribution (cluster):\n");
    pt.print();

    // Simulator self-profiling counters for this run.
    obs::MetricsRegistry registry;
    obs::SimCounters counters;
    counters.capture(simulator.queue(), network);
    counters.addTo(registry);
    std::ofstream metricsOut("metrics.json", std::ios::binary);
    if (metricsOut && (metricsOut << registry.toJson()))
        std::printf("wrote metrics.json\n");
    return 0;
}
