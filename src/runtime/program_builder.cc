#include "runtime/program_builder.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "parallel/memory_planner.hh"

namespace charllm {
namespace runtime {

namespace {

// Backward passes cost ~2x forward (dgrad + wgrad); LoRA skips the
// frozen weights' wgrad, landing near 1.35x.
constexpr double kBwdFlopsFactor = 2.0;
constexpr double kLoraBwdFlopsFactor = 1.35;

// Activation bytes streamed through HBM per token per layer visit
// (reads + writes of intermediate tensors), per byte of element.
constexpr double kActHbmFactor = 16.0;

// MoE routing imbalance: the hottest local expert exceeds the mean
// token load; drawn per (rank, microbatch, phase).
constexpr double kMoeImbalanceSigma = 0.18;

// Optimizer arithmetic per trainable parameter (Adam: ~10 flops) and
// bytes touched per parameter (read/write weights+grads+moments).
constexpr double kOptimizerFlopsPerParam = 10.0;
constexpr double kOptimizerBytesPerParam = 22.0;

// Gradient buckets whose DP AllReduce can overlap backward compute
// (the last microbatches' backwards, under ccOverlap).
constexpr int kGradBuckets = 4;

} // namespace

ProgramBuilder::ProgramBuilder(
    const model::TransformerConfig& model_config,
    const parallel::RankMapper& mapper, const TrainOptions& options)
    : cfg(model_config), analytics(model_config), map(mapper),
      opts(options)
{
    const auto& par = map.config();
    int per_replica = opts.globalBatchSize / par.dp;
    CHARLLM_ASSERT(opts.globalBatchSize % par.dp == 0,
                   "global batch not divisible by dp");
    CHARLLM_ASSERT(per_replica % opts.microbatchSize == 0,
                   "replica batch ", per_replica,
                   " not divisible by microbatch ", opts.microbatchSize);
    microbatches = per_replica / opts.microbatchSize;
    CHARLLM_ASSERT(microbatches >= 1, "need at least one microbatch");
    tokensPerMicrobatch =
        static_cast<double>(opts.microbatchSize) * cfg.seqLength;
    if (!opts.stageLayers.empty()) {
        CHARLLM_ASSERT(static_cast<int>(opts.stageLayers.size()) ==
                           par.pp,
                       "stageLayers size must equal pp");
        int sum = 0;
        for (int l : opts.stageLayers)
            sum += l;
        CHARLLM_ASSERT(sum == cfg.numLayers,
                       "stageLayers must sum to numLayers");
    }
    if (cfg.isMoe())
        CHARLLM_ASSERT(cfg.numExperts % par.ep == 0,
                       "experts not divisible by ep");
    int v = std::max(opts.virtualStages, 1);
    if (v > 1) {
        CHARLLM_ASSERT(par.pp > 1,
                       "interleaved scheduling needs pp > 1");
        CHARLLM_ASSERT(opts.stageLayers.empty(),
                       "interleaving is incompatible with asymmetric "
                       "stage layers");
        CHARLLM_ASSERT(cfg.numLayers % (par.pp * v) == 0,
                       "layers (", cfg.numLayers,
                       ") must divide pp*v (", par.pp * v, ")");
        CHARLLM_ASSERT(microbatches % par.pp == 0,
                       "interleaved 1F1B needs microbatch count (",
                       microbatches, ") divisible by pp (", par.pp,
                       ")");
        CHARLLM_ASSERT(!opts.inference,
                       "interleaving applies to training pipelines");
    }
}

double
ProgramBuilder::tokensPerIteration() const
{
    return static_cast<double>(opts.globalBatchSize) * cfg.seqLength;
}

int
ProgramBuilder::layersOnStage(int stage) const
{
    if (!opts.stageLayers.empty())
        return opts.stageLayers[static_cast<std::size_t>(stage)];
    const auto& par = map.config();
    int base = cfg.numLayers / par.pp;
    int extra = cfg.numLayers % par.pp;
    return base + (stage < extra ? 1 : 0);
}

double
ProgramBuilder::layersPerChunk() const
{
    const auto& par = map.config();
    int v = std::max(opts.virtualStages, 1);
    return static_cast<double>(cfg.numLayers) / (par.pp * v);
}

double
ProgramBuilder::pipelineBubbleFraction() const
{
    double p = map.config().pp;
    double m = microbatches;
    double v = std::max(opts.virtualStages, 1);
    return (p - 1.0) / (v * m + p - 1.0);
}

Bytes
ProgramBuilder::stageParamBytes(int stage) const
{
    parallel::MemoryPlanner planner(cfg, map.config());
    return Bytes(planner.paramsPerGpu(stage) *
                 model::TransformerConfig::kBytesPerElement);
}

Bytes
ProgramBuilder::gradBytesPerGpu(int stage) const
{
    double trainable_fraction =
        analytics.trainableParams() / analytics.totalParams();
    return stageParamBytes(stage) * trainable_fraction;
}

int
ProgramBuilder::groupIdFor(BuildContext& ctx,
                           std::vector<int> devices) const
{
    auto it = ctx.groupIds.find(devices);
    if (it != ctx.groupIds.end())
        return it->second;
    int id = static_cast<int>(ctx.program.groups.size());
    ctx.program.groups.push_back(devices);
    ctx.groupIds.emplace(std::move(devices), id);
    return id;
}

int
ProgramBuilder::tpGroupId(BuildContext& ctx, int rank) const
{
    const auto& par = map.config();
    parallel::RankCoords c = map.coordsOf(rank);
    int& id = ctx.tpGroupIds[static_cast<std::size_t>(
        c.dpIdx + par.dp * c.ppIdx)];
    if (id < 0)
        id = groupIdFor(ctx, map.tpGroupDevices(rank));
    return id;
}

int
ProgramBuilder::dpGroupId(BuildContext& ctx, int rank) const
{
    const auto& par = map.config();
    parallel::RankCoords c = map.coordsOf(rank);
    int& id = ctx.dpGroupIds[static_cast<std::size_t>(
        c.tpIdx + par.tp * c.ppIdx)];
    if (id < 0)
        id = groupIdFor(ctx, dpGroupAlive(rank));
    return id;
}

int
ProgramBuilder::epGroupId(BuildContext& ctx, int rank) const
{
    const auto& par = map.config();
    parallel::RankCoords c = map.coordsOf(rank);
    int& id = ctx.epGroupIds[static_cast<std::size_t>(
        c.tpIdx + par.tp * (c.ppIdx + par.pp * (c.dpIdx / par.ep)))];
    if (id < 0)
        id = groupIdFor(ctx, map.epGroupDevices(rank));
    return id;
}

int
ProgramBuilder::deviceAtStage(int rank, int stage) const
{
    parallel::RankCoords c = map.coordsOf(rank);
    c.ppIdx = stage;
    return map.deviceOf(map.rankFromCoords(c));
}

std::vector<int>
ProgramBuilder::dpGroupAlive(int rank) const
{
    std::vector<int> group = map.dpGroupDevices(rank);
    if (elastic == nullptr)
        return group;
    std::vector<int> alive;
    for (int d : group)
        if (!deviceDead(d))
            alive.push_back(d);
    return alive;
}

void
ProgramBuilder::emitForward(BuildContext& ctx, int rank, int mb,
                            int chunk) const
{
    const auto& par = map.config();
    int dev = map.deviceOf(rank);
    auto& ops = ctx.program.deviceOps[opSlot(dev)];
    int stage = map.coordsOf(rank).ppIdx;
    int v = std::max(opts.virtualStages, 1);
    int vstage = chunk * par.pp + stage;
    int last_vstage = par.pp * v - 1;
    double ls = v == 1 ? layersOnStage(stage) : layersPerChunk();
    double t = tokensPerMicrobatch;
    double el = model::TransformerConfig::kBytesPerElement;
    bool cc = opts.ccOverlap;
    bool moe = cfg.isMoe() && par.ep > 1;

    // FSDP: gather this stage's full parameters for the microbatch.
    if (par.fsdp && effectiveDp() > 1) {
        Op ag;
        ag.type = OpType::Collective;
        ag.cls = hw::KernelClass::AllGather;
        ag.name = "fsdp-allgather";
        ag.ckind = coll::CollectiveKind::AllGather;
        ag.groupId = dpGroupId(ctx, rank);
        ag.bytes = stageParamBytes(stage);
        ag.messages = static_cast<int>(layersOnStage(stage));
        ag.topologyAware = opts.topologyAwareCollectives;
        ag.microbatch = mb;
        ops.push_back(ag);
    }

    // Receive boundary activations from the previous virtual stage.
    // The tensor is sliced across TP ranks, so TP+PP emits small,
    // un-chunked SendRecv messages (paper Sec. 4.2). Interleaving
    // wraps the last pipeline rank back to rank 0 for the next chunk.
    if (vstage > 0) {
        Op rx;
        rx.type = OpType::Recv;
        rx.cls = hw::KernelClass::SendRecv;
        rx.name = "recv-fwd";
        rx.peerDevice = stage > 0
                            ? map.prevStageDevice(rank)
                            : deviceAtStage(rank, par.pp - 1);
        rx.bytes = Bytes(t * cfg.hiddenSize * el / par.tp);
        rx.chunked = (par.tp == 1) || opts.chunkP2p;
        rx.microbatch = mb;
        ops.push_back(rx);
    }

    // Attention block (all layers of the chunk, fused).
    Op attn;
    attn.type = OpType::Compute;
    attn.cls = hw::KernelClass::Attention;
    attn.name = "fwd-attn";
    attn.flops = Flops(ls * t * analytics.attnFwdFlopsPerToken() / par.tp);
    attn.hbmBytes = Bytes(ls * analytics.attnParamsPerLayer() / par.tp *
                              el +
                          kActHbmFactor * t * cfg.hiddenSize * el);
    attn.kernels = std::max(1, static_cast<int>(ls));
    attn.microbatch = mb;
    ops.push_back(attn);

    // Megatron TP allreduce after the attention block.
    int tp_group = -1;
    if (par.tp > 1) {
        tp_group = tpGroupId(ctx, rank);
        Op ar;
        ar.type = OpType::Collective;
        ar.cls = hw::KernelClass::AllReduce;
        ar.name = "tp-allreduce-attn";
        ar.ckind = coll::CollectiveKind::AllReduce;
        ar.groupId = tp_group;
        ar.bytes = Bytes(ls * t * cfg.hiddenSize * el);
        ar.messages = std::max(1, static_cast<int>(ls));
        ar.topologyAware = opts.topologyAwareCollectives;
        ar.async = cc; // overlapped with the MLP block under cc
        ar.microbatch = mb;
        ops.push_back(ar);
    }

    // MoE dispatch all-to-all (routes tokens to expert owners).
    int ep_group = -1;
    if (moe) {
        ep_group = epGroupId(ctx, rank);
        Op a2a;
        a2a.type = OpType::Collective;
        a2a.cls = hw::KernelClass::AllToAll;
        a2a.name = "moe-dispatch";
        a2a.ckind = coll::CollectiveKind::AllToAll;
        a2a.groupId = ep_group;
        a2a.bytes = Bytes(ls * t * cfg.hiddenSize * el * cfg.topK);
        a2a.messages = std::max(1, static_cast<int>(ls));
        a2a.microbatch = mb;
        ops.push_back(a2a);
    }

    // MLP / expert block. MoE adds routing imbalance jitter: the
    // busiest rank of the EP group straggles into the combine.
    double imbalance = 1.0;
    if (cfg.isMoe())
        imbalance = 1.0 + std::abs(ctx.rng.gaussian(0.0,
                                                    kMoeImbalanceSigma));
    Op mlp;
    mlp.type = OpType::Compute;
    mlp.cls = cfg.isMoe() ? hw::KernelClass::MoeGemm
                          : hw::KernelClass::Gemm;
    mlp.name = "fwd-mlp";
    mlp.flops = Flops(ls * t * analytics.mlpFwdFlopsPerToken() /
                      par.tp * imbalance);
    double experts_local =
        cfg.isMoe() ? static_cast<double>(cfg.numExperts) / par.ep : 1.0;
    mlp.hbmBytes = Bytes(ls * experts_local *
                             analytics.mlpParamsPerExpert() / par.tp *
                             el +
                         kActHbmFactor * t * cfg.hiddenSize * el);
    mlp.kernels = std::max(1, static_cast<int>(ls));
    mlp.microbatch = mb;
    ops.push_back(mlp);

    if (moe) {
        Op a2a;
        a2a.type = OpType::Collective;
        a2a.cls = hw::KernelClass::AllToAll;
        a2a.name = "moe-combine";
        a2a.ckind = coll::CollectiveKind::AllToAll;
        a2a.groupId = ep_group;
        a2a.bytes = Bytes(ls * t * cfg.hiddenSize * el * cfg.topK);
        a2a.messages = std::max(1, static_cast<int>(ls));
        a2a.microbatch = mb;
        ops.push_back(a2a);
    }

    if (par.tp > 1) {
        Op ar;
        ar.type = OpType::Collective;
        ar.cls = hw::KernelClass::AllReduce;
        ar.name = "tp-allreduce-mlp";
        ar.ckind = coll::CollectiveKind::AllReduce;
        ar.groupId = tp_group;
        ar.bytes = Bytes(ls * t * cfg.hiddenSize * el);
        ar.messages = std::max(1, static_cast<int>(ls));
        ar.topologyAware = opts.topologyAwareCollectives;
        ar.microbatch = mb;
        ops.push_back(ar);
        if (cc) {
            // Close the overlapped window before leaving the stage.
            Op drain;
            drain.type = OpType::Drain;
            drain.name = "cc-drain";
            drain.microbatch = mb;
            ops.push_back(drain);
        }
    }

    // Output head on the last virtual stage.
    if (vstage == last_vstage) {
        Op head;
        head.type = OpType::Compute;
        head.cls = hw::KernelClass::Gemm;
        head.name = "fwd-head";
        head.flops = Flops(t * analytics.headFlopsPerToken() / par.tp);
        head.hbmBytes = Bytes(static_cast<double>(cfg.vocabSize) *
                                  cfg.hiddenSize / par.tp * el +
                              kActHbmFactor * t * cfg.hiddenSize * el);
        head.microbatch = mb;
        ops.push_back(head);
    }

    if (vstage < last_vstage) {
        Op tx;
        tx.type = OpType::Send;
        tx.cls = hw::KernelClass::SendRecv;
        tx.name = "send-fwd";
        tx.peerDevice = stage < par.pp - 1
                            ? map.nextStageDevice(rank)
                            : deviceAtStage(rank, 0);
        tx.bytes = Bytes(t * cfg.hiddenSize * el / par.tp);
        tx.chunked = (par.tp == 1) || opts.chunkP2p;
        tx.microbatch = mb;
        ops.push_back(tx);
    }
}

void
ProgramBuilder::emitBackward(BuildContext& ctx, int rank, int mb,
                             int chunk, bool overlap_grad_bucket,
                             int bucket_count) const
{
    const auto& par = map.config();
    int dev = map.deviceOf(rank);
    auto& ops = ctx.program.deviceOps[opSlot(dev)];
    int stage = map.coordsOf(rank).ppIdx;
    int v = std::max(opts.virtualStages, 1);
    int vstage = chunk * par.pp + stage;
    int last_vstage = par.pp * v - 1;
    double ls = v == 1 ? layersOnStage(stage) : layersPerChunk();
    double t = tokensPerMicrobatch;
    double el = model::TransformerConfig::kBytesPerElement;
    bool cc = opts.ccOverlap;
    bool moe = cfg.isMoe() && par.ep > 1;
    double bwd_factor =
        cfg.isLora() ? kLoraBwdFlopsFactor : kBwdFlopsFactor;

    // Receive loss gradients from the next virtual stage.
    if (vstage < last_vstage) {
        Op rx;
        rx.type = OpType::Recv;
        rx.cls = hw::KernelClass::SendRecv;
        rx.name = "recv-bwd";
        rx.peerDevice = stage < par.pp - 1
                            ? map.nextStageDevice(rank)
                            : deviceAtStage(rank, 0);
        rx.bytes = Bytes(t * cfg.hiddenSize * el / par.tp);
        rx.chunked = (par.tp == 1) || opts.chunkP2p;
        rx.microbatch = mb;
        ops.push_back(rx);
    }

    // Re-materialize stashed activations under recomputation.
    if (opts.actRecompute && !opts.inference) {
        Op rc;
        rc.type = OpType::Compute;
        rc.cls = hw::KernelClass::Recompute;
        rc.name = "recompute";
        rc.flops = Flops(ls * t *
                         (analytics.attnFwdFlopsPerToken() +
                          analytics.mlpFwdFlopsPerToken()) /
                         par.tp);
        rc.hbmBytes = Bytes(kActHbmFactor * t * cfg.hiddenSize * el);
        rc.kernels = std::max(1, static_cast<int>(ls));
        rc.microbatch = mb;
        ops.push_back(rc);
    }

    double imbalance = 1.0;
    if (cfg.isMoe())
        imbalance = 1.0 + std::abs(ctx.rng.gaussian(0.0,
                                                    kMoeImbalanceSigma));

    int ep_group = -1;
    if (moe) {
        ep_group = epGroupId(ctx, rank);
        Op a2a;
        a2a.type = OpType::Collective;
        a2a.cls = hw::KernelClass::AllToAll;
        a2a.name = "moe-bwd-dispatch";
        a2a.ckind = coll::CollectiveKind::AllToAll;
        a2a.groupId = ep_group;
        a2a.bytes = Bytes(ls * t * cfg.hiddenSize * el * cfg.topK);
        a2a.messages = std::max(1, static_cast<int>(ls));
        a2a.microbatch = mb;
        ops.push_back(a2a);
    }

    Op mlp;
    mlp.type = OpType::Compute;
    mlp.cls = cfg.isMoe() ? hw::KernelClass::MoeGemm
                          : hw::KernelClass::Gemm;
    mlp.name = "bwd-mlp";
    mlp.flops = Flops(bwd_factor * ls * t *
                      analytics.mlpFwdFlopsPerToken() / par.tp *
                      imbalance);
    double experts_local =
        cfg.isMoe() ? static_cast<double>(cfg.numExperts) / par.ep : 1.0;
    mlp.hbmBytes = Bytes(ls * experts_local *
                             analytics.mlpParamsPerExpert() / par.tp *
                             el +
                         kActHbmFactor * t * cfg.hiddenSize * el);
    mlp.kernels = std::max(1, static_cast<int>(ls));
    mlp.microbatch = mb;
    ops.push_back(mlp);

    if (moe) {
        Op a2a;
        a2a.type = OpType::Collective;
        a2a.cls = hw::KernelClass::AllToAll;
        a2a.name = "moe-bwd-combine";
        a2a.ckind = coll::CollectiveKind::AllToAll;
        a2a.groupId = ep_group;
        a2a.bytes = Bytes(ls * t * cfg.hiddenSize * el * cfg.topK);
        a2a.messages = std::max(1, static_cast<int>(ls));
        a2a.microbatch = mb;
        ops.push_back(a2a);
    }

    int tp_group = -1;
    if (par.tp > 1) {
        tp_group = tpGroupId(ctx, rank);
        Op ar;
        ar.type = OpType::Collective;
        ar.cls = hw::KernelClass::AllReduce;
        ar.name = "tp-allreduce-bwd1";
        ar.ckind = coll::CollectiveKind::AllReduce;
        ar.groupId = tp_group;
        ar.bytes = Bytes(ls * t * cfg.hiddenSize * el);
        ar.messages = std::max(1, static_cast<int>(ls));
        ar.topologyAware = opts.topologyAwareCollectives;
        ar.async = cc;
        ar.microbatch = mb;
        ops.push_back(ar);
    }

    Op attn;
    attn.type = OpType::Compute;
    attn.cls = hw::KernelClass::Attention;
    attn.name = "bwd-attn";
    attn.flops = Flops(bwd_factor * ls * t *
                       analytics.attnFwdFlopsPerToken() / par.tp);
    attn.hbmBytes = Bytes(ls * analytics.attnParamsPerLayer() / par.tp *
                              el +
                          kActHbmFactor * t * cfg.hiddenSize * el);
    attn.kernels = std::max(1, static_cast<int>(ls));
    attn.microbatch = mb;
    ops.push_back(attn);

    if (par.tp > 1) {
        Op ar;
        ar.type = OpType::Collective;
        ar.cls = hw::KernelClass::AllReduce;
        ar.name = "tp-allreduce-bwd2";
        ar.ckind = coll::CollectiveKind::AllReduce;
        ar.groupId = tp_group;
        ar.bytes = Bytes(ls * t * cfg.hiddenSize * el);
        ar.messages = std::max(1, static_cast<int>(ls));
        ar.topologyAware = opts.topologyAwareCollectives;
        ar.microbatch = mb;
        ops.push_back(ar);
        if (cc) {
            Op drain;
            drain.type = OpType::Drain;
            drain.name = "cc-drain";
            drain.microbatch = mb;
            ops.push_back(drain);
        }
    }

    // Send input gradients to the previous virtual stage.
    if (vstage > 0) {
        Op tx;
        tx.type = OpType::Send;
        tx.cls = hw::KernelClass::SendRecv;
        tx.name = "send-bwd";
        tx.peerDevice = stage > 0
                            ? map.prevStageDevice(rank)
                            : deviceAtStage(rank, par.pp - 1);
        tx.bytes = Bytes(t * cfg.hiddenSize * el / par.tp);
        tx.chunked = (par.tp == 1) || opts.chunkP2p;
        tx.microbatch = mb;
        ops.push_back(tx);
    }

    // FSDP reduce-scatters this microbatch's gradients.
    if (par.fsdp && effectiveDp() > 1) {
        Op rs;
        rs.type = OpType::Collective;
        rs.cls = hw::KernelClass::ReduceScatter;
        rs.name = "fsdp-reducescatter";
        rs.ckind = coll::CollectiveKind::ReduceScatter;
        rs.groupId = dpGroupId(ctx, rank);
        rs.bytes = gradBytesPerGpu(stage);
        rs.messages = static_cast<int>(layersOnStage(stage));
        rs.topologyAware = opts.topologyAwareCollectives;
        rs.async = cc;
        rs.microbatch = mb;
        ops.push_back(rs);
    }

    // Overlapped data-parallel gradient bucket (cc enabled): sync the
    // gradients of the tail microbatches while backward continues.
    if (overlap_grad_bucket) {
        Op gb;
        gb.type = OpType::Collective;
        gb.cls = opts.zero1 ? hw::KernelClass::ReduceScatter
                            : hw::KernelClass::AllReduce;
        gb.name = "dp-grad-bucket";
        gb.ckind = opts.zero1 ? coll::CollectiveKind::ReduceScatter
                              : coll::CollectiveKind::AllReduce;
        gb.groupId = dpGroupId(ctx, rank);
        gb.bytes = gradBytesPerGpu(stage) /
                   std::max(bucket_count, 1);
        gb.topologyAware = opts.topologyAwareCollectives;
        gb.async = true;
        gb.microbatch = mb;
        ops.push_back(gb);
    }
}

void
ProgramBuilder::emitIterationTail(BuildContext& ctx, int rank) const
{
    const auto& par = map.config();
    int dev = map.deviceOf(rank);
    auto& ops = ctx.program.deviceOps[opSlot(dev)];
    int stage = map.coordsOf(rank).ppIdx;

    if (opts.inference)
        return;

    int dp = effectiveDp();
    bool plain_dp = dp > 1 && !par.fsdp;
    if (plain_dp) {
        if (opts.ccOverlap) {
            // Buckets were issued during the backward tail.
            Op drain;
            drain.type = OpType::Drain;
            drain.name = "dp-grad-drain";
            drain.tail = true;
            ops.push_back(drain);
        } else {
            Op sync;
            sync.type = OpType::Collective;
            sync.cls = opts.zero1 ? hw::KernelClass::ReduceScatter
                                  : hw::KernelClass::AllReduce;
            sync.name = "dp-grad-sync";
            sync.tail = true;
            sync.ckind = opts.zero1
                             ? coll::CollectiveKind::ReduceScatter
                             : coll::CollectiveKind::AllReduce;
            sync.groupId = dpGroupId(ctx, rank);
            sync.bytes = gradBytesPerGpu(stage);
            sync.topologyAware = opts.topologyAwareCollectives;
            ops.push_back(sync);
        }
    }

    // Optimizer step (HBM-bound). ZeRO-1 / FSDP shard the work; a
    // shrunk elastic world re-shards across the survivors.
    double trainable_fraction =
        analytics.trainableParams() / analytics.totalParams();
    double trainable =
        stageParamBytes(stage).value() /
        model::TransformerConfig::kBytesPerElement * trainable_fraction;
    double shard = 1.0;
    if (par.fsdp || (opts.zero1 && dp > 1))
        shard = dp;
    Op opt;
    opt.type = OpType::Compute;
    opt.cls = hw::KernelClass::Optimizer;
    opt.name = "optimizer-step";
    opt.tail = true;
    opt.flops = Flops(trainable * kOptimizerFlopsPerParam / shard);
    opt.hbmBytes = Bytes(trainable * kOptimizerBytesPerParam / shard);
    ops.push_back(opt);

    // ZeRO-1 gathers the freshly updated parameter shards.
    if (plain_dp && opts.zero1) {
        Op ag;
        ag.type = OpType::Collective;
        ag.cls = hw::KernelClass::AllGather;
        ag.name = "zero1-param-allgather";
        ag.tail = true;
        ag.ckind = coll::CollectiveKind::AllGather;
        ag.groupId = dpGroupId(ctx, rank);
        ag.bytes = stageParamBytes(stage) * trainable_fraction;
        ag.topologyAware = opts.topologyAwareCollectives;
        ops.push_back(ag);
    }

    Op drain;
    drain.type = OpType::Drain;
    drain.name = "iteration-drain";
    drain.tail = true;
    ops.push_back(drain);
}

void
ProgramBuilder::emitRank(BuildContext& ctx, int rank) const
{
    const auto& par = map.config();
    int stage = map.coordsOf(rank).ppIdx;
    int m = effectiveMicrobatches();
    int buckets = std::min(kGradBuckets, m);
    bool plain_dp = effectiveDp() > 1 && !par.fsdp;

    if (std::max(opts.virtualStages, 1) > 1) {
        emitRankInterleaved(ctx, rank);
        return;
    }

    auto overlap_bucket = [&](int bwd_mb) {
        return opts.ccOverlap && plain_dp && !opts.inference &&
               bwd_mb >= m - buckets;
    };

    if (opts.inference) {
        for (int mb = 0; mb < m; ++mb)
            emitForward(ctx, rank, mb, 0);
        Op drain;
        drain.type = OpType::Drain;
        drain.name = "iteration-drain";
        drain.tail = true;
        ctx.program.deviceOps[opSlot(map.deviceOf(rank))]
            .push_back(drain);
        return;
    }

    // 1F1B: warmup forwards, steady one-forward-one-backward,
    // cooldown backwards.
    int warmup = std::min(par.pp - 1 - stage, m);
    for (int i = 0; i < warmup; ++i)
        emitForward(ctx, rank, i, 0);
    int bwd = 0;
    for (int i = warmup; i < m; ++i) {
        emitForward(ctx, rank, i, 0);
        emitBackward(ctx, rank, bwd, 0, overlap_bucket(bwd), buckets);
        ++bwd;
    }
    for (; bwd < m; ++bwd)
        emitBackward(ctx, rank, bwd, 0, overlap_bucket(bwd), buckets);

    emitIterationTail(ctx, rank);
}

void
ProgramBuilder::emitRankInterleaved(BuildContext& ctx, int rank) const
{
    // Megatron-style interleaved 1F1B over v virtual chunks per rank:
    // microbatches advance in groups of pp, cycling through the
    // chunks, so the pipeline fills with v*m smaller stage-visits and
    // the bubble shrinks accordingly.
    const auto& par = map.config();
    int stage = map.coordsOf(rank).ppIdx;
    int m = effectiveMicrobatches();
    int v = opts.virtualStages;
    int total = m * v;
    int buckets = std::min(kGradBuckets, total);
    bool plain_dp = effectiveDp() > 1 && !par.fsdp;

    // Forward/backward schedule-slot -> (chunk, microbatch). Both
    // mappings are rank-independent, which keeps the per-channel
    // send/recv sequences FIFO-consistent across ranks.
    auto fwd_loc = [&](int k) {
        int chunk = (k / par.pp) % v;
        int mb = (k / (par.pp * v)) * par.pp + k % par.pp;
        return std::pair<int, int>(chunk, mb);
    };
    auto bwd_loc = [&](int k) {
        int chunk = v - 1 - (k / par.pp) % v;
        int mb = (k / (par.pp * v)) * par.pp + k % par.pp;
        return std::pair<int, int>(chunk, mb);
    };

    int warmup = std::min((par.pp - stage - 1) * 2 + (v - 1) * par.pp,
                          total);
    for (int k = 0; k < warmup; ++k) {
        auto [chunk, mb] = fwd_loc(k);
        emitForward(ctx, rank, mb, chunk);
    }
    int bwd_k = 0;
    for (int k = warmup; k < total; ++k) {
        auto [fchunk, fmb] = fwd_loc(k);
        emitForward(ctx, rank, fmb, fchunk);
        auto [bchunk, bmb] = bwd_loc(bwd_k);
        bool overlap = opts.ccOverlap && plain_dp &&
                       bwd_k >= total - buckets;
        emitBackward(ctx, rank, bmb, bchunk, overlap, buckets);
        ++bwd_k;
    }
    for (; bwd_k < total; ++bwd_k) {
        auto [bchunk, bmb] = bwd_loc(bwd_k);
        bool overlap = opts.ccOverlap && plain_dp &&
                       bwd_k >= total - buckets;
        emitBackward(ctx, rank, bmb, bchunk, overlap, buckets);
    }

    emitIterationTail(ctx, rank);
}

Program
ProgramBuilder::build(int iteration) const
{
    BuildContext ctx;
    CHARLLM_ASSERT(fold == nullptr || elastic == nullptr,
                   "symmetry fold and elastic shrink are mutually "
                   "exclusive");
    ctx.rng = Rng(opts.seed * 0x9e3779b9ULL +
                  static_cast<unsigned>(iteration) * 0x85ebca6bULL + 1);
    ctx.program.deviceOps.resize(static_cast<std::size_t>(
        fold != nullptr ? fold->physWorld() : map.worldSize()));
    const auto& par = map.config();
    ctx.tpGroupIds.assign(static_cast<std::size_t>(par.dp * par.pp), -1);
    ctx.dpGroupIds.assign(static_cast<std::size_t>(par.tp * par.pp), -1);
    ctx.epGroupIds.assign(
        static_cast<std::size_t>(par.tp * par.pp * (par.dp / par.ep)), -1);
    for (int rank = 0; rank < map.worldSize(); ++rank) {
        // Under collapse only replica-0 ranks execute; folded ranks'
        // behaviour is implied by their representative. Groups still
        // record logical members, so arrival thresholds come from
        // groupExpected below. (The per-rank RNG is only consumed by
        // MoE imbalance draws, which the symmetry analyzer refuses,
        // so skipping ranks cannot shift any sampled stream.)
        if (fold != nullptr &&
            !fold->instantiated(map.deviceOf(rank)))
            continue;
        // Under elastic shrink a dead replica's ranks execute
        // nothing: their op lists stay empty, so the engine's devices
        // complete instantly and the survivors' DP groups (restricted
        // by dpGroupAlive) never wait on them.
        if (elastic != nullptr &&
            elastic->replicaDead(map.coordsOf(rank).dpIdx))
            continue;
        emitRank(ctx, rank);
    }
    ctx.program.groupExpected.reserve(ctx.program.groups.size());
    for (const auto& group : ctx.program.groups) {
        int expected = 0;
        for (int d : group) {
            if (fold != nullptr && !fold->instantiated(d))
                continue;
            if (elastic != nullptr && deviceDead(d))
                continue;
            ++expected;
        }
        ctx.program.groupExpected.push_back(expected);
    }
    return std::move(ctx.program);
}

} // namespace runtime
} // namespace charllm
