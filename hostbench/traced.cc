// The traced pass: core::DesBackend's lower + execute, rebuilt from the
// same public components so each layer can be timed from outside. The
// one difference is the governor ticker: the benchmark registers its
// own, calling hw::Platform::tick at the point Platform::start would
// have armed it, so the event schedule (and every simulated output) is
// bitwise the one the backend produces. main.cc checks that on every
// pass. Legacy fault scenarios, power caps, device permutations and
// elastic shrink are not used by any workload and are refused here.

#include <algorithm>

#include "coll/collective_engine.hh"
#include "common/logging.hh"
#include "hostbench.hh"
#include "hw/calibration.hh"
#include "hw/platform.hh"
#include "net/flow_network.hh"
#include "parallel/rank_mapper.hh"
#include "runtime/engine.hh"
#include "runtime/program_builder.hh"
#include "scale/symmetry.hh"
#include "sim/simulator.hh"

namespace hostbench {

void
LayerTimes::add(const LayerTimes& o)
{
    ticks += o.ticks;
    tickSec += o.tickSec;
    eventLoopSec += o.eventLoopSec;
    events += o.events;
    loopAllocs += o.loopAllocs;
    flows += o.flows;
    fullRecomputes += o.fullRecomputes;
    fastJoins += o.fastJoins;
    fastCompletions += o.fastCompletions;
    programBuildSec += o.programBuildSec;
    samples += o.samples;
    traceSpans += o.traceSpans;
    failuresHit += o.failuresHit;
    logicalWorld = std::max(logicalWorld, o.logicalWorld);
    physicalWorld = std::max(physicalWorld, o.physicalWorld);
}

core::ExperimentResult
tracedDes(const core::ExperimentConfig& config, LayerTimes* layers,
          ProbeSizes* sizes, double* windowSec)
{
    CHARLLM_CHECK(config.faultScenario.empty() &&
                      config.nodePowerCaps.empty() &&
                      config.devicePermutation.empty(),
                  "the traced pass does not model fault scenarios, power "
                  "caps or device permutations");
    CHARLLM_CHECK(!(config.resilience.enabled &&
                    config.resilience.recovery.dryPolicy ==
                        resil::DryPoolPolicy::ElasticShrink),
                  "the traced pass does not model elastic shrink");
    const double start = hostSeconds();

    // ---- DesBackend::lower -----------------------------------------------
    core::ExperimentResult result;
    core::ExperimentConfig cfg = config;
    cfg.par.validate();
    if (cfg.model.isMoe())
        cfg.train.zero1 = false;
    result.label = cfg.label();
    int per_replica = cfg.train.globalBatchSize / cfg.par.dp;
    int microbatches = std::max(1, per_replica / cfg.train.microbatchSize);
    parallel::MemoryPlanner planner(cfg.model, cfg.par);
    auto memory_opts = core::memoryOptionsFor(cfg, microbatches);
    result.memory = planner.worstStage(memory_opts);
    if (cfg.checkMemory &&
        !planner.fits(cfg.cluster.gpu.memoryBytes, memory_opts)) {
        result.feasible = false;
        *windowSec = hostSeconds() - start;
        return result;
    }

    // ---- DesBackend::execute: the stack --------------------------------------
    scale::SymmetryFold fold;
    {
        scale::SymmetryAnalyzer::Input sym;
        sym.tp = cfg.par.tp;
        sym.dp = cfg.par.dp;
        sym.pp = cfg.par.pp;
        sym.ep = cfg.par.ep;
        sym.gpusPerNode = cfg.cluster.network.gpusPerNode;
        sym.moe = cfg.model.isMoe();
        sym.resilience = cfg.resilience.enabled;
        sym.requested = cfg.symmetryCollapse;
        result.symmetry = scale::SymmetryAnalyzer::analyze(sym, &fold);
    }
    const bool collapsed = result.symmetry.collapsed;

    sim::Simulator simulator;
    if (collapsed && cfg.partitionedDispatch) {
        simulator.partition(1 + fold.physNodes());
        result.symmetry.domains = 1 + fold.physNodes();
    }
    net::Topology::Params net_params = cfg.cluster.network;
    if (collapsed)
        net_params.numNodes = fold.physNodes();
    net::Topology topology(net_params);
    hw::Platform platform(simulator, cfg.cluster.gpu, cfg.cluster.chassis,
                          collapsed ? fold.physNodes()
                                    : cfg.cluster.numNodes);
    net::FlowNetwork network(simulator, topology);
    coll::CollectiveEngine collectives(simulator, network);
    if (collapsed)
        collectives.setFold(&fold);

    parallel::RankMapper mapper(cfg.par);
    runtime::ProgramBuilder builder(cfg.model, mapper, cfg.train);
    if (collapsed)
        builder.setFold(&fold);
    runtime::EngineOptions engine_opts;
    engine_opts.warmupIterations = cfg.warmupIterations;
    engine_opts.measuredIterations = cfg.measuredIterations;
    runtime::TrainingEngine engine(platform, network, collectives, builder,
                                   engine_opts);
    if (collapsed)
        engine.setFold(&fold);

    std::unique_ptr<obs::CriticalPathRecorder> critpath;
    if (cfg.enableCriticalPath) {
        critpath =
            std::make_unique<obs::CriticalPathRecorder>(platform.numGpus());
        if (collapsed)
            critpath->setFold(true, fold.multiplicity());
        engine.setCriticalPath(critpath.get());
    }

    std::unique_ptr<resil::RecoveryManager> recovery;
    if (cfg.resilience.enabled) {
        Bytes state = resil::CheckpointModel::rankStateBytes(
            cfg.model, cfg.par, core::memoryOptionsFor(cfg, microbatches));
        resil::StoragePath storage;
        storage.pcieBw = cfg.cluster.network.pcieBw;
        storage.nicBw = cfg.cluster.network.nicBw;
        storage.storeBw =
            BytesPerSec(cfg.resilience.checkpoint.storeGBps * 1e9);
        resil::CheckpointModel ckpt(state, storage, topology.gpusPerNode(),
                                    topology.numGpus());
        double interval = cfg.resilience.checkpoint.intervalSec;
        if (interval <= 0.0)
            interval = resil::CheckpointModel::youngDalyInterval(
                           ckpt.writeSeconds(),
                           Seconds(cfg.resilience.mtbf.clusterFatalMtbfSec(
                               topology.numGpus(), topology.numNodes())))
                           .value();
        auto schedule = resil::FailureGenerator::generate(
            cfg.resilience.mtbf, topology.numGpus(), topology.numNodes(),
            Seconds(cfg.resilience.horizonSec), cfg.resilience.seed);
        result.failureSchedule = schedule;
        result.checkpointIntervalSec = interval;
        recovery = std::make_unique<resil::RecoveryManager>(
            simulator, platform, network, engine, ckpt, Seconds(interval),
            cfg.resilience.checkpoint.async,
            Seconds(cfg.resilience.checkpoint.quiesceSec),
            cfg.resilience.recovery, std::move(schedule),
            Seconds(cfg.resilience.horizonSec), cfg.resilience.seed);
        if (cfg.resilience.recovery.elasticRemap)
            recovery->attachMapper(mapper);
    }

    std::unique_ptr<telemetry::Sampler> sampler;
    if (cfg.enableSampler)
        sampler = std::make_unique<telemetry::Sampler>(
            platform, network, Seconds(cfg.samplePeriodSec),
            cfg.maxSamplesPerGpu);
    std::shared_ptr<telemetry::KernelTrace> trace;
    if (cfg.enableTrace) {
        trace = std::make_shared<telemetry::KernelTrace>();
        if (collapsed) {
            const scale::SymmetryFold f = fold;
            engine.setTraceSink([trace, f](int dev, hw::KernelClass cls,
                                           const char* name, double start_s,
                                           double dur) {
                for (int k = 0; k < f.dp; ++k)
                    trace->record(f.imageOf(dev, k), cls, name, start_s, dur);
            });
        } else {
            engine.setTraceSink([trace](int dev, hw::KernelClass cls,
                                        const char* name, double start_s,
                                        double dur) {
                trace->record(dev, cls, name, start_s, dur);
            });
        }
    }

    // ---- the run, timed from outside ------------------------------------------
    // Registered where DesBackend calls platform.start(), with the same
    // period, so the (time, sequence) order of every event is unchanged.
    LayerTimes lt;
    std::size_t peak_flows = 0, peak_pending = 0;
    simulator.every(sim::toTicks(hw::calib::kGovernorPeriodSec), [&] {
        double t0 = hostSeconds();
        platform.tick();
        lt.tickSec += hostSeconds() - t0;
        ++lt.ticks;
        peak_flows = std::max(peak_flows, network.numActiveFlows());
        peak_pending = std::max(peak_pending, simulator.totalPending());
    });
    std::uint64_t allocs0 = allocationCount();
    double loop0 = hostSeconds();
    engine.run();
    lt.eventLoopSec = hostSeconds() - loop0;
    lt.loopAllocs = allocationCount() - allocs0;

    // ---- DesBackend::execute: metric collection ---------------------------------
    result.iterationSeconds = engine.iterationSeconds();
    result.avgIterationSeconds = engine.avgIterationSeconds();
    result.tokensPerIteration = builder.tokensPerIteration();
    result.tokensPerSecond =
        result.tokensPerIteration / result.avgIterationSeconds;
    result.measureStartSec = engine.measureStartSeconds();

    double iters = static_cast<double>(cfg.measuredIterations);
    RunningStats power_avg, temp_avg, clock_avg, throttle_avg;
    const int logical_world =
        collapsed ? fold.logicalWorld() : platform.numGpus();
    for (int i = 0; i < logical_world; ++i) {
        const hw::Gpu& gpu = platform.gpu(collapsed ? fold.repOf(i) : i);
        core::GpuResult g;
        g.avgPowerW = gpu.powerStats().mean();
        g.peakPowerW = gpu.powerStats().max();
        g.avgTempC = gpu.tempStats().mean();
        g.peakTempC = gpu.tempStats().max();
        g.avgClockGhz =
            gpu.clockStats().mean() * gpu.spec().nominalClockGhz;
        g.throttleRatio = gpu.throttleRatio();
        g.avgOccupancy = gpu.occupancyStats().mean();
        g.avgWarps = gpu.warpStats().mean();
        g.avgThreadblocks = gpu.threadblockStats().mean();
        g.energyJ = gpu.energyJoules().value();
        g.pcieBytes =
            gpu.trafficBytes(hw::TrafficClass::Pcie).value() / iters;
        hw::TrafficClass up = cfg.cluster.network.chiplet
                                  ? hw::TrafficClass::Xgmi
                                  : hw::TrafficClass::NvLink;
        g.scaleUpBytes = gpu.trafficBytes(up).value() / iters;
        g.breakdown = gpu.breakdown();
        for (double& s : g.breakdown.seconds)
            s /= iters;

        result.totalEnergyJ += g.energyJ;
        result.meanBreakdown.merge(g.breakdown);
        result.peakPowerW = std::max(result.peakPowerW, g.peakPowerW);
        result.peakTempC = std::max(result.peakTempC, g.peakTempC);
        power_avg.add(g.avgPowerW);
        temp_avg.add(g.avgTempC);
        clock_avg.add(g.avgClockGhz);
        throttle_avg.add(g.throttleRatio);
        result.gpus.push_back(std::move(g));
    }
    for (double& s : result.meanBreakdown.seconds)
        s /= static_cast<double>(logical_world);
    result.avgPowerW = power_avg.mean();
    result.avgTempC = temp_avg.mean();
    result.avgClockGhz = clock_avg.mean();
    result.throttleRatio = throttle_avg.mean();

    double tokens_measured = result.tokensPerIteration * iters;
    result.energyPerTokenJ = result.totalEnergyJ / tokens_measured;
    result.tokensPerJoule = tokens_measured / result.totalEnergyJ;

    if (sampler) {
        result.series.reserve(static_cast<std::size_t>(logical_world));
        for (int i = 0; i < logical_world; ++i)
            result.series.push_back(
                sampler->series(collapsed ? fold.repOf(i) : i));
    }
    result.trace = trace;
    result.iterationSpans = engine.iterationSpans();
    if (critpath)
        result.critPath = std::make_shared<obs::CriticalPathReport>(
            critpath->analyze());
    if (recovery) {
        result.goodput = recovery->finalize(result.series);
        result.goodputValid = true;
    }
    result.counters.capture(simulator, network);
    *windowSec = hostSeconds() - start;

    // ---- counts and the outside program-build estimate ---------------------------
    // build() is const and deterministic per iteration index, so
    // re-building every executed iteration here costs what the engine
    // paid, without entering its timed window.
    double build0 = hostSeconds();
    for (const auto& span : result.iterationSpans)
        (void)builder.build(span.index);
    lt.programBuildSec = hostSeconds() - build0;
    lt.events = result.counters.eventsPopped;
    lt.flows = result.counters.flowsStarted;
    lt.fullRecomputes = result.counters.flowFullRecomputes;
    lt.fastJoins = result.counters.flowFastJoins;
    lt.fastCompletions = result.counters.flowFastCompletions;
    lt.samples = sampler ? sampler->numSamples() : 0;
    lt.traceSpans = trace ? trace->size() : 0;
    lt.failuresHit = recovery ? static_cast<std::uint64_t>(
                                    result.goodput.stats.failuresInjected)
                              : 0;
    lt.logicalWorld = logical_world;
    lt.physicalWorld = platform.numGpus();
    layers->add(lt);

    if (lt.events > sizes->events) {
        sizes->valid = true;
        sizes->config = cfg;
        sizes->events = lt.events;
        sizes->physicalNodes = platform.numNodes();
        sizes->peakActiveFlows = peak_flows;
        sizes->peakPendingEvents = peak_pending;
    }
    return result;
}

} // namespace hostbench
