#include "core/des_backend.hh"

#include "coll/collective_engine.hh"
#include "common/logging.hh"
#include "faults/fault_injector.hh"
#include "hw/platform.hh"
#include "net/flow_network.hh"
#include "parallel/rank_mapper.hh"
#include "runtime/engine.hh"
#include "runtime/program_builder.hh"
#include "scale/symmetry.hh"
#include "sim/simulator.hh"

namespace charllm {
namespace core {

void
DesBackend::run()
{
    // ---- rank-symmetry decision ----------------------------------------
    scale::SymmetryFold fold;
    result.symmetry = analyzeSymmetry(cfg, cfg.symmetryCollapse, &fold);
    const bool collapsed = result.symmetry.collapsed;
    if (result.symmetry.requested && !collapsed)
        CHARLLM_WARN("symmetry collapse refused (", result.symmetry.reason,
                     "); falling back to full instantiation");

    // ---- build the full simulation stack -------------------------------
    // Under collapse the stack is built at physical size (one DP
    // replica per pipeline stage); everything logical-facing (rank
    // mapper, program groups, aggregation) keeps the logical world.
    sim::Simulator simulator;
    if (collapsed && cfg.partitionedDispatch) {
        simulator.partition(1 + fold.physNodes());
        result.symmetry.domains = 1 + fold.physNodes();
    }
    net::Topology::Params net_params = cfg.cluster.network;
    if (collapsed)
        net_params.numNodes = fold.physNodes();
    net::Topology topology(net_params);
    hw::Platform platform(simulator, cfg.cluster.gpu,
                          cfg.cluster.chassis,
                          collapsed ? fold.physNodes()
                                    : cfg.cluster.numNodes,
                          tickMode);
    net::FlowNetwork network(simulator, topology);
    coll::CollectiveEngine collectives(simulator, network);
    if (collapsed)
        collectives.setFold(&fold);

    parallel::RankMapper mapper(cfg.par);
    if (!cfg.devicePermutation.empty())
        mapper.setDevicePermutation(cfg.devicePermutation);

    runtime::ProgramBuilder builder(cfg.model, mapper, cfg.train);
    if (collapsed)
        builder.setFold(&fold);
    std::unique_ptr<parallel::ElasticWorld> elastic_world;
    if (cfg.resilience.enabled &&
        cfg.resilience.recovery.dryPolicy ==
            resil::DryPoolPolicy::ElasticShrink) {
        CHARLLM_ASSERT(!collapsed, "elastic shrink under symmetry "
                                   "collapse (analyzer must refuse)");
        elastic_world = std::make_unique<parallel::ElasticWorld>(
            cfg.par.dp, cfg.train.globalBatchSize,
            cfg.train.microbatchSize,
            cfg.resilience.recovery.elastic.rebalance);
        builder.setElasticWorld(elastic_world.get());
    }
    runtime::EngineOptions engine_opts;
    engine_opts.warmupIterations = cfg.warmupIterations;
    engine_opts.measuredIterations = cfg.measuredIterations;
    runtime::TrainingEngine engine(platform, network, collectives,
                                   builder, engine_opts);
    if (collapsed)
        engine.setFold(&fold);

    std::unique_ptr<obs::CriticalPathRecorder> critpath;
    if (cfg.enableCriticalPath) {
        critpath = std::make_unique<obs::CriticalPathRecorder>(
            platform.numGpus());
        if (collapsed)
            critpath->setFold(true, fold.multiplicity());
        engine.setCriticalPath(critpath.get());
    }

    std::unique_ptr<faults::FaultInjector> injector;
    if (!cfg.faultScenario.empty()) {
        injector = std::make_unique<faults::FaultInjector>(
            simulator, platform, network);
        injector->attachEngine(engine);
        if (cfg.elasticRemap)
            injector->attachMapper(mapper);
    }

    std::unique_ptr<resil::RecoveryManager> recovery;
    if (cfg.resilience.enabled) {
        resil::CheckpointModel ckpt = checkpointModelFor(cfg);
        double interval = cfg.resilience.checkpoint.intervalSec;
        if (interval <= 0.0)
            interval =
                resil::CheckpointModel::youngDalyInterval(
                    ckpt.writeSeconds(),
                    Seconds(cfg.resilience.mtbf.clusterFatalMtbfSec(
                        topology.numGpus(), topology.numNodes())))
                    .value();
        auto schedule = resil::FailureGenerator::generate(
            cfg.resilience.mtbf, topology.numGpus(),
            topology.numNodes(), Seconds(cfg.resilience.horizonSec),
            cfg.resilience.seed);
        result.failureSchedule = schedule;
        result.checkpointIntervalSec = interval;
        recovery = std::make_unique<resil::RecoveryManager>(
            simulator, platform, network, engine, ckpt,
            Seconds(interval), cfg.resilience.checkpoint.async,
            Seconds(cfg.resilience.checkpoint.quiesceSec),
            cfg.resilience.recovery, std::move(schedule),
            Seconds(cfg.resilience.horizonSec), cfg.resilience.seed);
        if (cfg.resilience.recovery.elasticRemap)
            recovery->attachMapper(mapper);
        if (elastic_world)
            recovery->attachElastic(mapper, *elastic_world);
    }

    std::unique_ptr<telemetry::Sampler> sampler;
    if (cfg.enableSampler) {
        sampler = std::make_unique<telemetry::Sampler>(
            platform, network, Seconds(cfg.samplePeriodSec),
            cfg.maxSamplesPerGpu);
        if (injector) {
            auto* inj = injector.get();
            sampler->setFaultAnnotator(
                [inj](int gpu) { return inj->activeGpuFault(gpu); });
        }
    }
    std::shared_ptr<telemetry::KernelTrace> trace;
    if (cfg.enableTrace) {
        trace = std::make_shared<telemetry::KernelTrace>();
        if (collapsed) {
            // Expand physical spans to every replica image at record
            // time so the trace covers the logical world.
            const scale::SymmetryFold f = fold;
            engine.setTraceSink([trace, f](int dev, hw::KernelClass cls,
                                           const char* name,
                                           double start, double dur) {
                for (int k = 0; k < f.dp; ++k)
                    trace->record(f.imageOf(dev, k), cls, name, start,
                                  dur);
            });
        } else {
            engine.setTraceSink([trace](int dev, hw::KernelClass cls,
                                        const char* name, double start,
                                        double dur) {
                trace->record(dev, cls, name, start, dur);
            });
        }
    }

    for (const auto& [node, watts] : cfg.nodePowerCaps)
        platform.capNodePower(node, Watts(watts));
    if (injector)
        injector->apply(cfg.faultScenario);
    platform.start();
    engine.run();

    // ---- collect metrics --------------------------------------------------
    result.iterationSeconds = engine.iterationSeconds();
    result.avgIterationSeconds = engine.avgIterationSeconds();
    result.tokensPerIteration = builder.tokensPerIteration();
    result.measureStartSec = engine.measureStartSeconds();

    double iters = static_cast<double>(cfg.measuredIterations);
    // Aggregate over the LOGICAL world in device order; under collapse
    // logical device d reads its representative's statistics, giving
    // the identical sequence of floating-point adds as a full run.
    const int logical_world =
        collapsed ? fold.logicalWorld() : platform.numGpus();
    for (int i = 0; i < logical_world; ++i) {
        const hw::Gpu& gpu =
            platform.gpu(collapsed ? fold.repOf(i) : i);
        GpuResult& g = result.gpus.emplace_back();
        g.avgPowerW = gpu.powerStats().mean();
        g.peakPowerW = gpu.powerStats().max();
        g.avgTempC = gpu.tempStats().mean();
        g.peakTempC = gpu.tempStats().max();
        g.avgClockGhz = gpu.clockStats().mean() *
                        gpu.spec().nominalClockGhz;
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
    }

    if (sampler) {
        result.series.reserve(
            static_cast<std::size_t>(logical_world));
        for (int i = 0; i < logical_world; ++i)
            result.series.push_back(
                sampler->series(collapsed ? fold.repOf(i) : i));
    }
    result.trace = trace;
    if (injector) {
        result.faultLog = injector->log();
        if (trace)
            injector->overlayOnTrace(*trace);
    }
    result.iterationSpans = engine.iterationSpans();
    if (critpath) {
        result.critPath = std::make_shared<obs::CriticalPathReport>(
            critpath->analyze());
    }
    if (recovery) {
        result.goodput = recovery->finalize(result.series);
        result.goodputValid = true;
    }
    result.counters.capture(simulator, network);
    result.counters.capture(platform);
    if (injector)
        result.counters.faultsInjected = injector->numScheduled();
}

} // namespace core
} // namespace charllm
