/**
 * @file
 * One wording per condition: each module that owns a config range
 * asserts its own problems list, so building it directly with a bad
 * input aborts with the very message core::validate reports for the
 * same input (DESIGN.md §9).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "coll/collective_engine.hh"
#include "core/cluster.hh"
#include "hw/platform.hh"
#include "model/analytics.hh"
#include "net/flow_network.hh"
#include "parallel/elastic_world.hh"
#include "parallel/parallel_config.hh"
#include "parallel/rank_mapper.hh"
#include "resil/checkpoint.hh"
#include "resil/failure_gen.hh"
#include "resil/recovery.hh"
#include "runtime/engine.hh"
#include "runtime/program_builder.hh"
#include "sim/simulator.hh"
#include "telemetry/sampler.hh"

namespace {

using namespace charllm;

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

/** @p message as a regex that matches it literally. */
std::string
literally(const std::string& message)
{
    std::string pattern;
    for (char c : message) {
        if (std::string("()[]{}.*+?^$|\\").find(c) != std::string::npos)
            pattern += '\\';
        pattern += c;
    }
    return pattern;
}

/** The 8-GPU H100 node the simulation-bound owners are built on. */
struct Node
{
    core::ClusterSpec cluster = core::h100Cluster(1);
    sim::Simulator simulator;
    net::Topology topo{cluster.network};
    hw::Platform plat{simulator, cluster.gpu, cluster.chassis,
                      cluster.numNodes};
    net::FlowNetwork netw{simulator, topo};
};

TEST(OwnerProblemsDeathTest, ParallelConfigValidate)
{
    parallel::ParallelConfig par;
    par.tp = 2;
    par.pp = 2;
    par.dp = 2;
    par.ep = 3;
    EXPECT_DEATH(par.validate(), literally("ep (3) must divide dp (2)"));
}

TEST(OwnerProblemsDeathTest, ModelAnalytics)
{
    model::TransformerConfig m = smallModel();
    m.numQueryGroups = 3;
    EXPECT_DEATH(model::ModelAnalytics{m},
                 literally("model numQueryGroups (3) must divide numHeads "
                           "(20)"));
}

TEST(OwnerProblemsDeathTest, ProgramBuilder)
{
    parallel::RankMapper map(parallel::ParallelConfig::forWorld(8, 2, 2));
    runtime::TrainOptions opts;
    opts.globalBatchSize = 16;
    opts.virtualStages = 3;
    EXPECT_DEATH((runtime::ProgramBuilder{smallModel(), map, opts}),
                 literally("pp * virtualStages (6) must divide numLayers "
                           "(16)"));
}

TEST(OwnerProblemsDeathTest, Sampler)
{
    Node node;
    EXPECT_DEATH(
        (telemetry::Sampler{node.plat, node.netw, Seconds(1e-10)}),
                 literally("samplePeriodSec must be positive: one tick (1 "
                           "ns) to a Tick's range (1.8e10 s) (got 1e-10)"));
}

TEST(OwnerProblemsDeathTest, RankMapperSetDevicePermutation)
{
    parallel::RankMapper map(parallel::ParallelConfig::forWorld(8, 2, 2));
    EXPECT_DEATH(map.setDevicePermutation({0, 1, 2, 3, 4, 5, 6, 6}),
                 literally("devicePermutation is not a permutation of "
                           "devices 0..7"));
}

TEST(OwnerProblemsDeathTest, ElasticWorld)
{
    EXPECT_DEATH((parallel::ElasticWorld{1, 16, 1, false}),
                 literally("elastic DP shrink requires dp >= 2 (got dp=1)"));
    // Sized before the check, a negative width threw length_error.
    EXPECT_DEATH((parallel::ElasticWorld{-1, 16, 1, false}),
                 literally("elastic DP shrink requires dp >= 2 (got dp=-1)"));
}

TEST(OwnerProblemsDeathTest, CheckpointModel)
{
    resil::StoragePath path{BytesPerSec(64e9), BytesPerSec(16e9),
                            BytesPerSec(0.0)};
    EXPECT_DEATH((resil::CheckpointModel{Bytes(1e9), path, 8, 8}),
                 literally("checkpoint.storeGBps and the PCIe and NIC "
                           "bandwidths must be positive (got 0 GB/s)"));
}

TEST(OwnerProblemsDeathTest, FailureGeneratorGenerate)
{
    resil::MtbfProfile profile;
    profile.gpuMtbfSec = std::nan("");
    EXPECT_DEATH(resil::FailureGenerator::generate(profile, 8, 1,
                                                   Seconds(3600.0), 1),
                 literally("mtbf.gpuMtbfSec must not be NaN"));
}

TEST(OwnerProblemsDeathTest, RecoveryManager)
{
    Node node;
    coll::CollectiveEngine colls(node.simulator, node.netw);
    parallel::RankMapper map(parallel::ParallelConfig::forWorld(8, 2, 2));
    runtime::TrainOptions opts;
    opts.globalBatchSize = 16;
    runtime::ProgramBuilder builder(smallModel(), map, opts);
    runtime::TrainingEngine engine(node.plat, node.netw, colls, builder,
                                   runtime::EngineOptions{});
    resil::StoragePath path{BytesPerSec(64e9), BytesPerSec(16e9),
                            BytesPerSec(1000e9)};
    resil::CheckpointModel ckpt(Bytes(1e9), path, 8, 8);
    resil::RecoveryConfig cfg;
    cfg.spares.capacity = -1;
    EXPECT_DEATH((resil::RecoveryManager{
                     node.simulator, node.plat, node.netw, engine, ckpt,
                     Seconds(60.0), false, Seconds(0.05), cfg, {},
                     Seconds(3600.0), 1}),
                 literally("recovery.spares.capacity must be >= 0 (got -1)"));
}

} // namespace
