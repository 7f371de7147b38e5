/**
 * @file
 * Tests for the runtime: program construction (1F1B structure,
 * optimization toggles, FSDP/MoE/LoRA emission) and end-to-end engine
 * behaviour on a small model (determinism, recompute and overlap
 * effects, pipeline bubbles, straggler propagation).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <set>

#include "coll/collective_engine.hh"
#include "core/cluster.hh"
#include "hw/platform.hh"
#include "net/flow_network.hh"
#include "runtime/engine.hh"
#include "runtime/program_builder.hh"
#include "sim/simulator.hh"

namespace {

using namespace charllm;
using namespace charllm::runtime;

/** Small, fast model for engine tests. */
model::TransformerConfig
tinyModel()
{
    model::TransformerConfig c;
    c.name = "Tiny-1B";
    c.numLayers = 8;
    c.hiddenSize = 2048;
    c.numHeads = 16;
    c.numQueryGroups = 16;
    c.ffnHiddenSize = 8192;
    c.vocabSize = 32000;
    c.seqLength = 1024;
    return c;
}

model::TransformerConfig
tinyMoe()
{
    model::TransformerConfig c = tinyModel();
    c.name = "Tiny-MoE";
    c.numExperts = 8;
    c.topK = 2;
    return c;
}

int
countOps(const Program& p, OpType type)
{
    int n = 0;
    for (const auto& ops : p.deviceOps) {
        for (const auto& op : ops) {
            if (op.type == type)
                ++n;
        }
    }
    return n;
}

int
countClass(const Program& p, hw::KernelClass cls)
{
    int n = 0;
    for (const auto& ops : p.deviceOps) {
        for (const auto& op : ops) {
            if (op.cls == cls)
                ++n;
        }
    }
    return n;
}

// ---- builder ----------------------------------------------------------------

TEST(Builder, MicrobatchAccounting)
{
    parallel::RankMapper map(parallel::ParallelConfig::forWorld(8, 2,
                                                                2));
    TrainOptions opts;
    opts.globalBatchSize = 64;
    opts.microbatchSize = 2;
    ProgramBuilder b(tinyModel(), map, opts);
    // dp = 2 -> 32 samples per replica -> 16 microbatches.
    EXPECT_EQ(b.numMicrobatches(), 16);
    EXPECT_DOUBLE_EQ(b.tokensPerIteration(), 64.0 * 1024.0);
}

TEST(Builder, BubbleFractionFormula)
{
    parallel::RankMapper map(parallel::ParallelConfig::forWorld(8, 1,
                                                                4));
    TrainOptions opts;
    opts.globalBatchSize = 32;
    opts.microbatchSize = 1;
    ProgramBuilder b(tinyModel(), map, opts);
    // dp = 2, m = 16, p = 4: (4-1)/(16+4-1).
    EXPECT_NEAR(b.pipelineBubbleFraction(), 3.0 / 19.0, 1e-12);
}

TEST(Builder, FirstAndLastStageSkipBoundaryP2p)
{
    parallel::RankMapper map(parallel::ParallelConfig::forWorld(4, 1,
                                                                4));
    TrainOptions opts;
    opts.globalBatchSize = 8;
    ProgramBuilder b(tinyModel(), map, opts);
    Program p = b.build(0);
    // Stage 0 (device 0) never receives forward activations.
    for (const auto& op : p.deviceOps[0]) {
        if (op.type == OpType::Recv)
            EXPECT_STREQ(op.name, "recv-bwd");
        if (op.type == OpType::Send)
            EXPECT_STREQ(op.name, "send-fwd");
    }
    // Last stage (device 3) computes the head.
    bool has_head = false;
    for (const auto& op : p.deviceOps[3])
        has_head |= std::string(op.name) == "fwd-head";
    EXPECT_TRUE(has_head);
    for (const auto& op : p.deviceOps[0]) {
        EXPECT_NE(std::string(op.name), "fwd-head");
    }
}

TEST(Builder, SendRecvCountsMatch1F1B)
{
    parallel::RankMapper map(parallel::ParallelConfig::forWorld(4, 1,
                                                                4));
    TrainOptions opts;
    opts.globalBatchSize = 8; // m = 8
    ProgramBuilder b(tinyModel(), map, opts);
    Program p = b.build(0);
    // Each stage boundary carries m fwd + m bwd messages; 3
    // boundaries -> 48 sends and 48 recvs total.
    EXPECT_EQ(countOps(p, OpType::Send), 48);
    EXPECT_EQ(countOps(p, OpType::Recv), 48);
}

TEST(Builder, TpPlusPpEmitsUnchunkedSendRecv)
{
    parallel::RankMapper map(parallel::ParallelConfig::forWorld(8, 2,
                                                                4));
    TrainOptions opts;
    opts.globalBatchSize = 8;
    ProgramBuilder b(tinyModel(), map, opts);
    Program p = b.build(0);
    for (const auto& ops : p.deviceOps) {
        for (const auto& op : ops) {
            if (op.type == OpType::Send)
                EXPECT_FALSE(op.chunked); // tp > 1: sparse slices
        }
    }
    // Pure PP chunks normally.
    parallel::RankMapper map1(parallel::ParallelConfig::forWorld(4, 1,
                                                                 4));
    ProgramBuilder b1(tinyModel(), map1, opts);
    Program p1 = b1.build(0);
    for (const auto& ops : p1.deviceOps) {
        for (const auto& op : ops) {
            if (op.type == OpType::Send)
                EXPECT_TRUE(op.chunked);
        }
    }
}

TEST(Builder, RecomputeAddsRecomputeOps)
{
    parallel::RankMapper map(parallel::ParallelConfig::forWorld(4, 1,
                                                                4));
    TrainOptions opts;
    opts.globalBatchSize = 8;
    ProgramBuilder base(tinyModel(), map, opts);
    EXPECT_EQ(countClass(base.build(0), hw::KernelClass::Recompute), 0);
    opts.actRecompute = true;
    ProgramBuilder act(tinyModel(), map, opts);
    // One recompute per backward per rank: 4 ranks x 8 microbatches.
    EXPECT_EQ(countClass(act.build(0), hw::KernelClass::Recompute), 32);
}

TEST(Builder, CcOverlapMarksAsyncAndDrains)
{
    parallel::RankMapper map(parallel::ParallelConfig::forWorld(8, 4,
                                                                2));
    TrainOptions opts;
    opts.globalBatchSize = 8;
    opts.ccOverlap = true;
    ProgramBuilder b(tinyModel(), map, opts);
    Program p = b.build(0);
    int async_colls = 0;
    for (const auto& ops : p.deviceOps) {
        for (const auto& op : ops) {
            if (op.type == OpType::Collective && op.async)
                ++async_colls;
        }
    }
    EXPECT_GT(async_colls, 0);
    EXPECT_GT(countOps(p, OpType::Drain), p.worldSize()); // cc drains
}

TEST(Builder, TailOpsCloseEveryProgram)
{
    // The iteration tail (gradient sync, optimizer step, ZeRO-1
    // gather, final drain) is a suffix of every device's program. Its
    // bit sits in Op's padding.
    EXPECT_EQ(sizeof(Op), 80u);
    parallel::RankMapper map(parallel::ParallelConfig::forWorld(8, 2, 2));
    auto is_tail = [](const Op& op) { return op.tail; };
    for (int variant = 0; variant < 4; ++variant) {
        TrainOptions opts;
        opts.globalBatchSize = 8;
        opts.ccOverlap = variant == 1;
        opts.zero1 = variant == 2;
        opts.inference = variant == 3;
        std::size_t tail = variant == 2 ? 4 : variant == 3 ? 1 : 3;
        Program p = ProgramBuilder(tinyModel(), map, opts).build(0);
        for (const auto& ops : p.deviceOps) {
            auto first = std::find_if(ops.begin(), ops.end(), is_tail);
            EXPECT_EQ(static_cast<std::size_t>(ops.end() - first), tail);
            EXPECT_TRUE(std::all_of(first, ops.end(), is_tail)) << variant;
        }
    }
}

TEST(Builder, MoeEmitsAllToAll)
{
    parallel::RankMapper map(
        parallel::ParallelConfig::forWorld(8, 1, 1, 8));
    TrainOptions opts;
    opts.globalBatchSize = 8;
    ProgramBuilder b(tinyMoe(), map, opts);
    Program p = b.build(0);
    // fwd 2 + bwd 2 per microbatch per rank; m = 1 per replica.
    EXPECT_EQ(countClass(p, hw::KernelClass::AllToAll), 8 * 4);
    // Dense model emits none.
    ProgramBuilder d(tinyModel(), map, opts);
    EXPECT_EQ(countClass(d.build(0), hw::KernelClass::AllToAll), 0);
}

TEST(Builder, FsdpEmitsGatherAndScatter)
{
    parallel::RankMapper map(
        parallel::ParallelConfig::forWorld(8, 2, 1, 1, true));
    TrainOptions opts;
    opts.globalBatchSize = 8; // dp = 4 -> m = 2
    ProgramBuilder b(tinyModel(), map, opts);
    Program p = b.build(0);
    EXPECT_EQ(countClass(p, hw::KernelClass::AllGather), 8 * 2);
    EXPECT_EQ(countClass(p, hw::KernelClass::ReduceScatter), 8 * 2);
}

TEST(Builder, InferenceIsForwardOnly)
{
    parallel::RankMapper map(parallel::ParallelConfig::forWorld(4, 1,
                                                                4));
    TrainOptions opts;
    opts.globalBatchSize = 8;
    opts.inference = true;
    ProgramBuilder b(tinyModel(), map, opts);
    Program p = b.build(0);
    EXPECT_EQ(countClass(p, hw::KernelClass::Optimizer), 0);
    for (const auto& ops : p.deviceOps) {
        for (const auto& op : ops)
            EXPECT_NE(std::string(op.name), "bwd-mlp");
    }
}

TEST(Builder, AsymmetricStageLayersRespected)
{
    parallel::RankMapper map(parallel::ParallelConfig::forWorld(4, 1,
                                                                4));
    TrainOptions opts;
    opts.globalBatchSize = 8;
    opts.stageLayers = {3, 1, 3, 1};
    ProgramBuilder b(tinyModel(), map, opts);
    EXPECT_EQ(b.layersOnStage(0), 3);
    EXPECT_EQ(b.layersOnStage(1), 1);
    // Stage 0 forward compute carries 3x the flops of stage 1.
    Program p = b.build(0);
    double f0 = 0, f1 = 0;
    for (const auto& op : p.deviceOps[0]) {
        if (std::string(op.name) == "fwd-attn")
            f0 = op.flops.value();
    }
    for (const auto& op : p.deviceOps[1]) {
        if (std::string(op.name) == "fwd-attn")
            f1 = op.flops.value();
    }
    EXPECT_NEAR(f0, 3.0 * f1, 1e-6 * f0);
}

TEST(Builder, LoraShrinksGradTraffic)
{
    parallel::RankMapper map(parallel::ParallelConfig::forWorld(8, 1,
                                                                1));
    TrainOptions opts;
    opts.globalBatchSize = 8;
    auto grad_bytes = [&](const model::TransformerConfig& m) {
        ProgramBuilder b(m, map, opts);
        Program p = b.build(0);
        for (const auto& op : p.deviceOps[0]) {
            if (std::string(op.name) == "dp-grad-sync")
                return op.bytes.value();
        }
        return -1.0;
    };
    double full = grad_bytes(tinyModel());
    double lora = grad_bytes(model::withLora(tinyModel(), 16));
    ASSERT_GT(full, 0.0);
    ASSERT_GT(lora, 0.0);
    EXPECT_LT(lora * 20.0, full);
}

/** FNV-1a over every field of every op of every device in order, then
 *  the group tables: a program's identity, bit for bit. */
std::uint64_t
programDigest(const Program& p)
{
    static_assert(sizeof(Op) == 80, "a new Op field must be digested");
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const void* data, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i)
            h = (h ^ b[i]) * 0x100000001b3ULL;
    };
    auto add = [&mix](auto v) { mix(&v, sizeof v); };
    add(p.deviceOps.size());
    for (const auto& ops : p.deviceOps) {
        add(ops.size());
        for (const Op& op : ops) {
            add(op.type);
            add(op.cls);
            mix(op.name, std::strlen(op.name) + 1);
            add(op.flops.value());
            add(op.hbmBytes.value());
            add(op.kernels);
            add(op.ckind);
            add(op.groupId);
            add(op.bytes.value());
            add(op.chunked);
            add(op.messages);
            add(op.async);
            add(op.topologyAware);
            add(op.tail);
            add(op.peerDevice);
            add(op.microbatch);
        }
    }
    add(p.groups.size());
    for (const auto& group : p.groups) {
        add(group.size());
        for (int d : group)
            add(d);
    }
    for (int expected : p.groupExpected)
        add(expected);
    return h;
}

TEST(Builder, ProgramsMatchGoldenDigest)
{
    // Pins every program the builder emits: op order per device, group
    // first-encounter order and the MoE imbalance draw order. A change
    // that moves any of them re-records the digests and says why.
    using P = parallel::ParallelConfig;
    model::TransformerConfig deep = tinyModel();
    deep.numLayers = 12; // pp 2 x v 3
    struct Case
    {
        const char* name;
        model::TransformerConfig model;
        P par;
        std::function<void(TrainOptions&)> tweak;
        std::vector<std::uint64_t> golden; //!< one per built iteration
    };
    auto check = [](const Program& p, std::uint64_t golden,
                    const std::string& name) {
        std::uint64_t got = programDigest(p);
        EXPECT_EQ(got, golden) << name << std::hex << " got 0x" << got;
    };
    auto none = [](TrainOptions&) {};
    std::vector<Case> cases = {
        {"base", tinyModel(), P::forWorld(16, 2, 4), none,
         {0x67891835ec158b85}},
        {"act", tinyModel(), P::forWorld(16, 2, 4),
         [](TrainOptions& o) { o.actRecompute = true; },
         {0x8537d0be4af295bd}},
        {"cc", tinyModel(), P::forWorld(16, 2, 4),
         [](TrainOptions& o) { o.ccOverlap = true; },
         {0xf7634e60c0d86e15}},
        {"act+cc zero1 off", tinyModel(), P::forWorld(16, 2, 4),
         [](TrainOptions& o) {
             o.actRecompute = o.ccOverlap = true;
             o.zero1 = false;
         },
         {0x5ba0abbff6a2746d}},
        {"fsdp cc", tinyModel(), P::forWorld(16, 2, 1, 1, true),
         [](TrainOptions& o) { o.ccOverlap = true; },
         {0x954d21e9920e505f}},
        {"moe ep", tinyMoe(), P::forWorld(16, 2, 2, 4),
         [](TrainOptions& o) { o.zero1 = false; },
         {0x95fa981d6dbe96dc, 0x4ee5dc2a13f17cca, 0x733926af7e604af6}},
        {"inference", tinyModel(), P::forWorld(16, 2, 4),
         [](TrainOptions& o) { o.inference = true; },
         {0xd15c0d5e3d93482d}},
        {"interleaved v2 cc", tinyModel(), P::forWorld(16, 2, 4),
         [](TrainOptions& o) {
             o.virtualStages = 2;
             o.ccOverlap = true;
         },
         {0x57e2615596075aa1}},
        {"interleaved v3 cc", deep, P::forWorld(8, 2, 2),
         [](TrainOptions& o) {
             o.virtualStages = 3;
             o.ccOverlap = true;
         },
         {0x52cdc1158bf62c05}},
        {"interleaved moe", tinyMoe(), P::forWorld(16, 2, 2, 2),
         [](TrainOptions& o) {
             o.virtualStages = 2;
             o.zero1 = false;
         },
         {0xf4b7a6222898c548, 0xf1673b03ba36c38c}},
        {"stage layers", tinyModel(), P::forWorld(16, 2, 4),
         [](TrainOptions& o) { o.stageLayers = {3, 1, 3, 1}; },
         {0xa82da7203d946055}},
        {"lora", model::withLora(tinyModel(), 16), P::forWorld(16, 2, 4),
         none, {0x88fe7ef57bceb39d}},
        {"chunk p2p", tinyModel(), P::forWorld(16, 2, 4),
         [](TrainOptions& o) { o.chunkP2p = true; },
         {0x9afc57db7598a215}},
        {"topology aware", tinyModel(), P::forWorld(16, 2, 2),
         [](TrainOptions& o) {
             o.topologyAwareCollectives = o.ccOverlap = true;
         },
         {0x296b488053eff6c5}},
    };
    for (const Case& c : cases) {
        parallel::RankMapper map(c.par);
        TrainOptions opts;
        opts.globalBatchSize = 32;
        c.tweak(opts);
        ProgramBuilder b(c.model, map, opts);
        for (std::size_t it = 0; it < c.golden.size(); ++it)
            check(b.build(static_cast<int>(it)), c.golden[it],
                  c.name + std::string(" iteration ") +
                      std::to_string(it));
    }

    // Placement variants on TP4-PP2-DP2 (16 GPUs, 4 per node).
    P par = P::forWorld(16, 4, 2);
    TrainOptions opts;
    opts.globalBatchSize = 32;
    opts.ccOverlap = true;
    {
        parallel::RankMapper map(par);
        scale::SymmetryFold fold;
        fold.tp = par.tp;
        fold.dp = par.dp;
        fold.pp = par.pp;
        fold.gpusPerNode = 4;
        ProgramBuilder b(tinyModel(), map, opts);
        b.setFold(&fold);
        check(b.build(0), 0xc149c8d89520b00b, "symmetry fold");
    }
    for (bool rebalance : {false, true}) {
        P wide = P::forWorld(16, 2, 2); // dp 4
        parallel::RankMapper map(wide);
        parallel::ElasticWorld world(wide.dp, opts.globalBatchSize,
                                     opts.microbatchSize, rebalance);
        world.markDead(1);
        ProgramBuilder b(tinyModel(), map, opts);
        b.setElasticWorld(&world);
        check(b.build(0),
              rebalance ? 0x07034260a8656533 : 0xab5d84031f44f7ab,
              rebalance ? "elastic rebalance" : "elastic");
    }
    {
        parallel::RankMapper map(par);
        std::vector<int> perm(16);
        for (int d = 0; d < 16; ++d)
            perm[static_cast<std::size_t>(d)] = (d * 5 + 3) % 16;
        map.setDevicePermutation(perm);
        check(ProgramBuilder(tinyModel(), map, opts).build(0),
              0xf85cf2773213e941, "device permutation");
    }
}

// ---- engine integration -----------------------------------------------------

struct EngineFixture : ::testing::Test
{
    /** Run a tiny experiment and return average iteration seconds. */
    double
    runTiny(const model::TransformerConfig& m, int tp, int pp, int ep,
            TrainOptions opts, int cap_node = -1,
            double cap_watts = 0.0)
    {
        core::ClusterSpec cluster = core::h200Cluster(1);
        sim::Simulator simulator;
        net::Topology topo(cluster.network);
        hw::Platform plat(simulator, cluster.gpu, cluster.chassis,
                          cluster.numNodes);
        net::FlowNetwork netw(simulator, topo);
        coll::CollectiveEngine colls(simulator, netw);
        parallel::RankMapper map(
            parallel::ParallelConfig::forWorld(8, tp, pp, ep));
        ProgramBuilder builder(m, map, opts);
        EngineOptions eopts;
        eopts.warmupIterations = 1;
        eopts.measuredIterations = 2;
        TrainingEngine engine(plat, netw, colls, builder, eopts);
        if (cap_node >= 0)
            plat.capNodePower(cap_node, Watts(cap_watts));
        plat.start();
        engine.run();
        return engine.avgIterationSeconds();
    }
};

TEST_F(EngineFixture, RunsToCompletionAllLayouts)
{
    TrainOptions opts;
    opts.globalBatchSize = 16;
    EXPECT_GT(runTiny(tinyModel(), 8, 1, 1, opts), 0.0);
    EXPECT_GT(runTiny(tinyModel(), 1, 8, 1, opts), 0.0);
    EXPECT_GT(runTiny(tinyModel(), 2, 4, 1, opts), 0.0);
    EXPECT_GT(runTiny(tinyModel(), 2, 2, 2, opts), 0.0);
    EXPECT_GT(runTiny(tinyMoe(), 1, 1, 8, opts), 0.0);
}

TEST_F(EngineFixture, DeterministicAcrossRuns)
{
    TrainOptions opts;
    opts.globalBatchSize = 16;
    double a = runTiny(tinyModel(), 2, 4, 1, opts);
    double b = runTiny(tinyModel(), 2, 4, 1, opts);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST_F(EngineFixture, RecomputeSlowsIteration)
{
    TrainOptions opts;
    opts.globalBatchSize = 16;
    double base = runTiny(tinyModel(), 1, 8, 1, opts);
    opts.actRecompute = true;
    double act = runTiny(tinyModel(), 1, 8, 1, opts);
    EXPECT_GT(act, base * 1.05);
}

TEST_F(EngineFixture, CcOverlapHelpsDataParallel)
{
    // DP with distributed optimizer benefits from overlapping the
    // gradient sync (the paper's Llama3-70B observation).
    TrainOptions opts;
    opts.globalBatchSize = 32;
    opts.zero1 = true;
    double base = runTiny(tinyModel(), 2, 1, 1, opts); // dp = 4
    opts.ccOverlap = true;
    double cc = runTiny(tinyModel(), 2, 1, 1, opts);
    EXPECT_LT(cc, base);
}

TEST_F(EngineFixture, MoreMicrobatchesShrinkBubbleOverhead)
{
    // With pp = 8 and everything else fixed, more microbatches mean a
    // proportionally smaller pipeline bubble.
    TrainOptions opts;
    opts.globalBatchSize = 8; // m = 8
    double few = runTiny(tinyModel(), 1, 8, 1, opts);
    opts.globalBatchSize = 32; // m = 32: 4x work, less than 4x time
    double many = runTiny(tinyModel(), 1, 8, 1, opts);
    EXPECT_LT(many, 4.0 * few);
}

TEST_F(EngineFixture, PowerCappedNodeCreatesStraggler)
{
    TrainOptions opts;
    opts.globalBatchSize = 16;
    double healthy = runTiny(tinyModel(), 8, 1, 1, opts);
    double faulty = runTiny(tinyModel(), 8, 1, 1, opts, 0, 220.0);
    // Node-level power fault throttles everyone in the TP group.
    EXPECT_GT(faulty, healthy * 1.1);
}

TEST_F(EngineFixture, InferenceFasterThanTraining)
{
    TrainOptions opts;
    opts.globalBatchSize = 16;
    double train = runTiny(tinyModel(), 2, 4, 1, opts);
    opts.inference = true;
    double infer = runTiny(tinyModel(), 2, 4, 1, opts);
    EXPECT_LT(infer * 1.5, train);
}


// ---- interleaved (virtual-stage) scheduling ---------------------------------

TEST(Interleaved, BubbleFractionShrinksWithVirtualStages)
{
    parallel::RankMapper map(parallel::ParallelConfig::forWorld(4, 1,
                                                                4));
    TrainOptions opts;
    opts.globalBatchSize = 8; // m = 8
    ProgramBuilder v1(tinyModel(), map, opts);
    opts.virtualStages = 2;
    ProgramBuilder v2(tinyModel(), map, opts);
    EXPECT_NEAR(v1.pipelineBubbleFraction(), 3.0 / 11.0, 1e-12);
    EXPECT_NEAR(v2.pipelineBubbleFraction(), 3.0 / 19.0, 1e-12);
    EXPECT_DOUBLE_EQ(v2.layersPerChunk(), 1.0);
}

TEST(Interleaved, DoublesBoundaryMessages)
{
    parallel::RankMapper map(parallel::ParallelConfig::forWorld(4, 1,
                                                                4));
    TrainOptions opts;
    opts.globalBatchSize = 8;
    ProgramBuilder v1(tinyModel(), map, opts);
    int sends_v1 = countOps(v1.build(0), OpType::Send);
    opts.virtualStages = 2;
    ProgramBuilder v2(tinyModel(), map, opts);
    int sends_v2 = countOps(v2.build(0), OpType::Send);
    // v=2: boundaries grow from 3 to 7 per direction per microbatch.
    EXPECT_GT(sends_v2, 2 * sends_v1);
}

TEST(Interleaved, HeadOnlyOnLastVirtualStage)
{
    parallel::RankMapper map(parallel::ParallelConfig::forWorld(4, 1,
                                                                4));
    TrainOptions opts;
    opts.globalBatchSize = 8;
    opts.virtualStages = 2;
    ProgramBuilder b(tinyModel(), map, opts);
    Program p = b.build(0);
    // Last virtual stage (chunk 1, stage 3) lives on device 3.
    for (int dev = 0; dev < 4; ++dev) {
        int heads = 0;
        for (const auto& op : p.deviceOps[static_cast<std::size_t>(
                 dev)]) {
            if (std::string(op.name) == "fwd-head")
                ++heads;
        }
        EXPECT_EQ(heads, dev == 3 ? 8 : 0) << "device " << dev;
    }
}

struct InterleavedEngine : EngineFixture
{
};

TEST_F(InterleavedEngine, ReducesIterationTimeAtSmallMicrobatchCount)
{
    TrainOptions opts;
    opts.globalBatchSize = 8; // m = 8 = pp: large bubble
    double base = runTiny(tinyModel(), 1, 8, 1, opts);
    opts.virtualStages = 2; // 8 layers / (8*2) ... needs pp 4
    // pp 8 with v 2 needs 16 chunks > 8 layers; use pp 4.
    TrainOptions opts4;
    opts4.globalBatchSize = 8;
    double base4 = runTiny(tinyModel(), 1, 4, 1, opts4);
    opts4.virtualStages = 2;
    double inter4 = runTiny(tinyModel(), 1, 4, 1, opts4);
    EXPECT_LT(inter4, base4);
    (void)base;
}

TEST_F(InterleavedEngine, DeterministicAndComposesWithOptimizations)
{
    TrainOptions opts;
    opts.globalBatchSize = 16;
    opts.virtualStages = 2;
    opts.actRecompute = true;
    opts.ccOverlap = true;
    double a = runTiny(tinyModel(), 2, 4, 1, opts);
    double b = runTiny(tinyModel(), 2, 4, 1, opts);
    EXPECT_GT(a, 0.0);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST_F(InterleavedEngine, WorksWithMoEExpertParallelism)
{
    TrainOptions opts;
    opts.globalBatchSize = 16;
    opts.virtualStages = 2;
    EXPECT_GT(runTiny(tinyMoe(), 1, 2, 2, opts), 0.0);
}

} // namespace
