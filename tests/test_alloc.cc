/**
 * @file
 * Steady-state allocation gates. This binary replaces the global
 * allocation functions with counting ones, so each test can assert how
 * many heap allocations a stretch of simulation performed:
 *
 *  - the 2 ms governor tick (thermal step, DVFS, per-GPU statistics)
 *    allocates nothing, and once settled evaluates no device;
 *  - a measured training iteration, from one commit to the next,
 *    allocates nothing once the pools have warmed up, also with the
 *    critical-path recorder attached (at most one record per event);
 *  - a long run performs exactly as many allocations as a short one,
 *    so retained memory is O(devices), not O(simulated time);
 *  - the analytical backend's lowering allocates linearly in devices,
 *    not in devices x group size;
 *  - writing a run's reports never makes one allocation anywhere near
 *    the size of its unified trace (the trace is streamed to disk),
 *    and its one-row summary copies no sampler series.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <vector>

#include "coll/collective_engine.hh"
#include "core/analytical_backend.hh"
#include "core/cluster.hh"
#include "core/report.hh"
#include "hw/calibration.hh"
#include "hw/platform.hh"
#include "net/flow_network.hh"
#include "net/topology.hh"
#include "obs/critical_path.hh"
#include "parallel/rank_mapper.hh"
#include "runtime/engine.hh"
#include "runtime/program_builder.hh"
#include "sim/simulator.hh"

namespace {

std::atomic<std::uint64_t> allocations{0};
std::atomic<std::size_t> largestRequest{0};

void*
countedAlloc(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    std::size_t largest = largestRequest.load(std::memory_order_relaxed);
    while (size > largest &&
           !largestRequest.compare_exchange_weak(
               largest, size, std::memory_order_relaxed)) {
    }
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

std::uint64_t
allocationCount()
{
    return allocations.load(std::memory_order_relaxed);
}

/** The largest single request since the previous call. */
std::size_t
takeLargestRequest()
{
    return largestRequest.exchange(0, std::memory_order_relaxed);
}

} // namespace

void*
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void*
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

// The nothrow forms are replaced too: left to a sanitizer's runtime,
// they return its memory to the free() below (std::stable_sort's
// temporary buffer does), which AddressSanitizer reports as an
// alloc-dealloc mismatch.
void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    try {
        return countedAlloc(size);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}

void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    try {
        return countedAlloc(size);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace charllm;

/** Small dense model: a measured iteration takes milliseconds. */
model::TransformerConfig
smallModel()
{
    model::TransformerConfig c;
    c.name = "Small-3B";
    c.numLayers = 16;
    c.hiddenSize = 2560;
    c.numHeads = 20;
    c.numQueryGroups = 20;
    c.ffnHiddenSize = 4 * 2560;
    c.vocabSize = 32000;
    c.seqLength = 1024;
    return c;
}

/** Records the allocation counter at every committed iteration. */
struct CommitProbe : runtime::ResilienceController
{
    std::vector<std::uint64_t> allocsAtCommit;

    CommitProbe() { allocsAtCommit.reserve(64); }

    double
    onIterationCommitted(int, double, double, bool) override
    {
        allocsAtCommit.push_back(allocationCount());
        return 0.0;
    }
};

/** Everything the engine needs, on two H100 nodes (the PP boundary
 *  crosses the IB fabric), TP2-PP2-DP4; optionally with the causal
 *  critical-path recorder attached. */
struct Stack
{
    Stack(const runtime::TrainOptions& train, int measured,
          bool critPath = false)
        : cluster(core::h100Cluster(2)),
          topo(cluster.network),
          plat(simulator, cluster.gpu, cluster.chassis, cluster.numNodes),
          netw(simulator, topo),
          colls(simulator, netw),
          map(parallel::ParallelConfig::forWorld(16, 2, 2)),
          builder(smallModel(), map, train),
          engine(plat, netw, colls, builder, engineOptions(measured)),
          critpath(critPath ? std::make_unique<obs::CriticalPathRecorder>(
                                  plat.numGpus())
                            : nullptr)
    {
        engine.setResilienceController(&probe);
        engine.setCriticalPath(critpath.get());
        plat.start();
    }

    static runtime::EngineOptions
    engineOptions(int measured)
    {
        runtime::EngineOptions o;
        o.warmupIterations = 2;
        o.measuredIterations = measured;
        return o;
    }

    core::ClusterSpec cluster;
    sim::Simulator simulator;
    net::Topology topo;
    hw::Platform plat;
    net::FlowNetwork netw;
    coll::CollectiveEngine colls;
    parallel::RankMapper map;
    runtime::ProgramBuilder builder;
    runtime::TrainingEngine engine;
    CommitProbe probe;
    std::unique_ptr<obs::CriticalPathRecorder> critpath;
};

runtime::TrainOptions
denseOptions()
{
    runtime::TrainOptions t;
    t.globalBatchSize = 16;
    return t;
}

TEST(SteadyStateAlloc, GovernorTickAllocatesNothing)
{
    core::ClusterSpec cluster = core::h100Cluster(2);
    sim::Simulator simulator;
    hw::Platform plat(simulator, cluster.gpu, cluster.chassis,
                      cluster.numNodes);
    // Keep the devices busy so the governor has power to react to.
    for (int g = 0; g < plat.numGpus(); ++g) {
        plat.gpu(g).kernelBegin(hw::KernelClass::Gemm, 1.0, 0.0);
        plat.gpu(g).kernelBegin(hw::KernelClass::AllReduce, 0.0, 0.0);
    }
    std::uint64_t before = allocationCount();
    for (int i = 0; i < 5000; ++i)
        plat.tick();
    EXPECT_EQ(allocationCount() - before, 0u);
    EXPECT_GT(plat.temperature(0).value(), 25.0);
}

TEST(SteadyStateAlloc, SettledPlatformTickEvaluatesNothing)
{
    // Idle devices warm toward their idle temperatures, far below every
    // governor band: once the first tick has anchored them, a tick has
    // nothing to decide.
    core::ClusterSpec cluster = core::h100Cluster(2);
    sim::Simulator simulator;
    hw::Platform plat(simulator, cluster.gpu, cluster.chassis,
                      cluster.numNodes);
    const sim::Tick period = sim::toTicks(hw::calib::kGovernorPeriodSec);
    sim::Tick at = 0;
    for (int i = 0; i < 10; ++i) {
        simulator.runUntil(at += period);
        plat.tick();
    }
    std::uint64_t evals = plat.counters().deviceEvals;
    std::uint64_t before = allocationCount();
    for (int i = 0; i < 5000; ++i) {
        simulator.runUntil(at += period);
        plat.tick();
    }
    EXPECT_EQ(allocationCount() - before, 0u);
    EXPECT_EQ(plat.counters().deviceEvals, evals);
    EXPECT_EQ(plat.counters().ticks, 5010u);
    EXPECT_GT(plat.temperature(0).value(), hw::calib::kRoomTempC);
}

TEST(SteadyStateAlloc, KernelBeginEndAllocatesNothing)
{
    hw::Gpu gpu(0, core::h100Cluster(1).gpu);
    std::uint64_t before = allocationCount();
    double now = 0.0;
    for (int i = 0; i < 10000; ++i) {
        auto a = gpu.kernelBegin(hw::KernelClass::Gemm, 0.8, now);
        auto b = gpu.kernelBegin(hw::KernelClass::SendRecv, 0.0, now);
        now += 1e-3;
        gpu.kernelEnd(a, now);
        gpu.kernelEnd(b, now);
    }
    EXPECT_EQ(allocationCount() - before, 0u);
}

TEST(SteadyStateAlloc, MeasuredIterationAllocatesNothing)
{
    // Each variant drives a different engine or collective path:
    // async overlapped gradient buckets, recompute ops, hierarchical
    // (topology-aware) collectives, interleaved virtual stages, and
    // the critical-path recorder's hooks (its slab is pre-reserved).
    struct Variant
    {
        const char* name;
        void (*apply)(runtime::TrainOptions&);
        bool critPath = false;
    };
    const Variant variants[] = {
        {"base", [](runtime::TrainOptions&) {}},
        {"cc-overlap", [](runtime::TrainOptions& t) { t.ccOverlap = true; }},
        {"act-recompute",
         [](runtime::TrainOptions& t) { t.actRecompute = true; }},
        {"topology-aware",
         [](runtime::TrainOptions& t) { t.topologyAwareCollectives = true; }},
        {"interleaved",
         [](runtime::TrainOptions& t) { t.virtualStages = 2; }},
        {"critical-path", [](runtime::TrainOptions&) {}, true},
    };
    for (const Variant& v : variants) {
        runtime::TrainOptions train = denseOptions();
        v.apply(train);
        Stack s(train, 4, v.critPath);
        s.engine.run();
        // One record per completed op, and each op completes in an
        // event: the recorder's work is bounded by the event count.
        if (s.critpath) {
            EXPECT_GT(s.critpath->numRecords(), 0u);
            EXPECT_LE(s.critpath->numRecords(),
                      s.simulator.queue().numPopped());
        }
        const auto& at = s.probe.allocsAtCommit;
        ASSERT_EQ(at.size(), 6u) << v.name;
        // Iterations 0-1 warm up, iteration 2 is the first measured
        // one; by then every pool has reached its high-water mark.
        for (std::size_t i = 3; i < at.size(); ++i)
            EXPECT_EQ(at[i] - at[i - 1], 0u)
                << v.name << ", iteration " << i;
    }
}

TEST(SteadyStateAlloc, LongRunAllocatesNoMoreThanShortRun)
{
    auto run_allocs = [](int measured) {
        std::uint64_t before = allocationCount();
        {
            Stack s(denseOptions(), measured);
            s.engine.run();
        }
        return allocationCount() - before;
    };
    EXPECT_EQ(run_allocs(30), run_allocs(3));
}

TEST(AnalyticalAlloc, LoweringAllocatesLinearlyInDevices)
{
    // The datacenter-scale GPT3-175B TP8-PP4 config: growing the world
    // grows the DP groups with it, so any per-device copy of a group
    // (or per-call node bucketing) shows up as quadratic growth.
    auto lower_allocs = [](int dp) {
        core::ExperimentConfig cfg;
        int world = 8 * 4 * dp;
        cfg.cluster = core::h200Cluster(world / 8);
        cfg.model = model::gpt3_175b();
        cfg.par = parallel::ParallelConfig::forWorld(world, 8, 4);
        cfg.train.actRecompute = true;
        cfg.train.globalBatchSize = 4 * dp;
        cfg.warmupIterations = 1;
        cfg.measuredIterations = 1;
        cfg.backend = sim::BackendKind::Analytical;
        core::AnalyticalBackend backend;
        std::uint64_t before = allocationCount();
        backend.lower(cfg);
        return allocationCount() - before;
    };
    std::uint64_t small = lower_allocs(32); // world 1024
    std::uint64_t large = lower_allocs(128); // world 4096
    EXPECT_LE(static_cast<double>(large), 4.5 * static_cast<double>(small))
        << "world 1024: " << small << " allocations, world 4096: "
        << large;
}

/** Allocations of AnalyticalBackend::lower on the datacenter-scale
 *  config at @p dp. An identity devicePermutation places nothing
 *  differently but makes the symmetry analyzer refuse, so every rank
 *  is lowered. */
std::uint64_t
datacenterLowerAllocs(int dp, bool identity_permutation)
{
    core::ExperimentConfig cfg;
    int world = 8 * 4 * dp;
    cfg.cluster = core::h200Cluster(world / 8);
    cfg.model = model::gpt3_175b();
    cfg.par = parallel::ParallelConfig::forWorld(world, 8, 4);
    cfg.train.actRecompute = true;
    cfg.train.globalBatchSize = 4 * dp;
    cfg.warmupIterations = 1;
    cfg.measuredIterations = 1;
    cfg.backend = sim::BackendKind::Analytical;
    if (identity_permutation) {
        for (int d = 0; d < world; ++d)
            cfg.devicePermutation.push_back(d);
    }
    core::AnalyticalBackend backend;
    std::uint64_t before = allocationCount();
    backend.lower(cfg);
    return allocationCount() - before;
}

TEST(AnalyticalAlloc, FoldedLoweringAllocationsIndependentOfDp)
{
    // Folded, lowering holds one replica's programs and summaries: the
    // DP groups grow with dp, but each is still one allocation.
    std::uint64_t small = datacenterLowerAllocs(32, false);  // world 1024
    std::uint64_t large = datacenterLowerAllocs(2048, false); // world 65536
    EXPECT_EQ(small, large);
}

TEST(AnalyticalAlloc, UnfoldedLoweringAllocatesLinearlyInDevices)
{
    // The rank-by-rank path the fold replaces must stay linear too.
    std::uint64_t small = datacenterLowerAllocs(32, true);  // world 1024
    std::uint64_t large = datacenterLowerAllocs(128, true); // world 4096
    EXPECT_LE(static_cast<double>(large), 4.5 * static_cast<double>(small))
        << "world 1024: " << small << " allocations, world 4096: "
        << large;
}

TEST(ValidateAlloc, ValidConfigAllocatesNothingAtAnyWorld)
{
    // core::validate sits in front of every run: a valid config must
    // cost no allocation and no per-device work (devicePermutation
    // empty), whatever the world size.
    for (int dp : {32, 128, 2048}) {
        core::ExperimentConfig cfg;
        int world = 8 * 4 * dp;
        cfg.cluster = core::h200Cluster(world / 8);
        cfg.model = model::gpt3_175b();
        cfg.par = parallel::ParallelConfig::forWorld(world, 8, 4);
        cfg.train.globalBatchSize = 4 * dp;
        cfg.nodePowerCaps = {{0, 300.0}};
        cfg.backend = sim::BackendKind::Analytical;
        std::uint64_t before = allocationCount();
        bool valid = core::validate(cfg).empty();
        EXPECT_EQ(allocationCount() - before, 0u) << "world " << world;
        EXPECT_TRUE(valid) << "world " << world;
    }
}

TEST(ReportAlloc, WriteReportsNeverHoldsTheTraceWhole)
{
    // The observed Small-3B TP2-PP2-DP4 run, long enough for a
    // _trace.json of at least 16 MiB. Streaming it keeps every single
    // allocation of writeReports far below the file's size; building
    // the text whole would allocate all of it (and copy it again).
    core::ExperimentConfig cfg;
    cfg.cluster = core::h100Cluster(2);
    cfg.model = smallModel();
    cfg.par = parallel::ParallelConfig::forWorld(16, 2, 2);
    cfg.train = denseOptions();
    cfg.warmupIterations = 2;
    cfg.measuredIterations = 56;
    cfg.enableSampler = true;
    cfg.enableTrace = true;
    cfg.enableCriticalPath = true;
    auto result = core::Experiment::run(cfg);
    ASSERT_TRUE(result.feasible);

    std::string dir = ::testing::TempDir() + "charllm_report_alloc";
    takeLargestRequest();
    auto paths = core::writeReports(result, dir, "alloc");
    std::size_t largest = takeLargestRequest();
    ASSERT_FALSE(paths.empty());
    std::uintmax_t traceBytes =
        std::filesystem::file_size(dir + "/alloc_trace.json");
    ASSERT_GE(traceBytes, std::uintmax_t{16} << 20);
    EXPECT_LT(largest, traceBytes / 4)
        << "largest allocation " << largest << " B, trace "
        << traceBytes << " B";
    std::filesystem::remove_all(dir);
}

TEST(ReportAlloc, SummaryCsvCopiesNoSeries)
{
    // A one-row summary of a sampled result: the row's text is a few
    // hundred bytes, while a copy of the result would copy every GPU's
    // sampler series (and the goodput timeline) along with it.
    core::ExperimentConfig cfg;
    cfg.cluster = core::h100Cluster(2);
    cfg.model = smallModel();
    cfg.par = parallel::ParallelConfig::forWorld(16, 2, 2);
    cfg.train = denseOptions();
    cfg.warmupIterations = 1;
    cfg.measuredIterations = 2;
    cfg.enableSampler = true;
    cfg.samplePeriodSec = 0.002;
    auto result = core::Experiment::run(cfg);
    ASSERT_TRUE(result.feasible);
    ASSERT_FALSE(result.series.empty());
    std::size_t seriesBytes =
        result.series[0].size() * sizeof(telemetry::Sample);
    ASSERT_GE(seriesBytes, std::size_t{16} << 10);

    takeLargestRequest();
    auto csv = core::summaryCsv({&result, 1});
    std::size_t largest = takeLargestRequest();
    EXPECT_EQ(csv.numRows(), 1u);
    EXPECT_LT(largest, seriesBytes)
        << "largest allocation " << largest << " B, one GPU's series "
        << seriesBytes << " B";
}

} // namespace
