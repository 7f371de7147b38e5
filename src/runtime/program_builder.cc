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

constexpr double kElemBytes = model::TransformerConfig::kBytesPerElement;

// Activation bytes streamed through HBM per token per layer visit
// (reads + writes of intermediate tensors), per byte of element.
constexpr double kActHbmFactor = 16.0;

// MoE routing imbalance: the hottest local expert exceeds the mean
// token load; drawn per (rank, microbatch, phase) from a stream seeded
// by the routing seed and the iteration.
constexpr double kMoeImbalanceSigma = 0.18;
constexpr unsigned kMoeRoutingSeed = 1;

// Optimizer arithmetic per trainable parameter (Adam: ~10 flops) and
// bytes touched per parameter (read/write weights+grads+moments).
constexpr double kOptimizerFlopsPerParam = 10.0;
constexpr double kOptimizerBytesPerParam = 22.0;

// Gradient buckets whose DP AllReduce can overlap backward compute
// (the last microbatches' backwards, under ccOverlap).
constexpr int kGradBuckets = 4;

// Microbatch of the iteration tail's ops (gradient sync, optimizer
// step, final drain), which run after the pipelined body.
constexpr int kTail = -1;

Op
makeOp(OpType type, hw::KernelClass cls, const char* name, int mb)
{
    Op op;
    op.type = type;
    op.cls = cls;
    op.name = name;
    op.microbatch = mb;
    op.tail = mb == kTail;
    return op;
}

Op
drainOp(const char* name, int mb)
{
    return makeOp(OpType::Drain, hw::KernelClass::Gemm, name, mb);
}

hw::KernelClass
kernelClassOf(coll::CollectiveKind kind)
{
    switch (kind) {
      case coll::CollectiveKind::AllReduce:
        return hw::KernelClass::AllReduce;
      case coll::CollectiveKind::AllGather:
        return hw::KernelClass::AllGather;
      case coll::CollectiveKind::ReduceScatter:
        return hw::KernelClass::ReduceScatter;
      case coll::CollectiveKind::AllToAll:
        return hw::KernelClass::AllToAll;
      default:
        return hw::KernelClass::SendRecv;
    }
}

// Data-parallel gradient sync: ZeRO-1 reduce-scatters to the shard
// owners, plain DP all-reduces.
coll::CollectiveKind
gradSyncKind(bool zero1)
{
    return zero1 ? coll::CollectiveKind::ReduceScatter
                 : coll::CollectiveKind::AllReduce;
}

} // namespace

void
addScheduleProblems(Problems& problems,
                    const model::TransformerConfig& model_config,
                    const parallel::ParallelConfig& par,
                    const TrainOptions& options)
{
    const bool widths = par.positiveWidths();
    const int layers = model_config.numLayers;
    std::size_t before = problems.size();
    parallel::addBatchProblems(problems, par.dp, options.globalBatchSize,
                               options.microbatchSize);
    // The microbatch count is defined once the batch splits.
    const bool split = widths && problems.size() == before;
    int microbatches =
        split ? options.globalBatchSize / par.dp / options.microbatchSize
              : 0;
    const std::vector<int>& stages = options.stageLayers;
    long long layer_sum = 0;
    int fewest = 0;
    for (int l : stages) {
        layer_sum += l;
        fewest = std::min(fewest, l);
    }
    require(problems, fewest >= 0,
            "stageLayers must not be negative (got ", fewest, ")");
    require(problems,
            stages.empty() || (static_cast<int>(stages.size()) == par.pp &&
                               layer_sum == layers),
            "stageLayers must give pp (", par.pp,
            ") stages summing to numLayers (", layers, ")");
    int v = options.virtualStages;
    if (v > 1) {
        require(problems, par.pp > 1,
                "interleaved scheduling (virtualStages > 1) needs pp > 1");
        require(problems, stages.empty(),
                "interleaving is incompatible with asymmetric stageLayers");
        require(problems, !options.inference,
                "interleaving applies to training pipelines, not inference");
        require(problems, !widths || layers % (1LL * par.pp * v) == 0,
                "pp * virtualStages (", 1LL * par.pp * v,
                ") must divide numLayers (", layers, ")");
        require(problems, !split || microbatches % par.pp == 0,
                "interleaved 1F1B needs the microbatch count (",
                microbatches, ") divisible by pp (", par.pp, ")");
    }
    parallel::addExpertProblems(problems, model_config, par);
}

void
addIterationProblems(Problems& problems, int warmup_iterations,
                     int measured_iterations)
{
    require(problems, warmup_iterations >= 0,
            "warmupIterations must be >= 0 (got ", warmup_iterations, ")");
    require(problems, measured_iterations >= 1,
            "measuredIterations must be >= 1 (got ", measured_iterations,
            ")");
}

ProgramBuilder::ProgramBuilder(
    const model::TransformerConfig& model_config,
    const parallel::RankMapper& mapper, const TrainOptions& options)
    : cfg(model_config), analytics(model_config), map(mapper),
      opts(options)
{
    const auto& par = map.config();
    Problems problems;
    addScheduleProblems(problems, cfg, par, opts);
    CHARLLM_ASSERT(problems.empty(), problems.front());
    microbatches = opts.globalBatchSize / par.dp / opts.microbatchSize;
    tokensPerMicrobatch =
        static_cast<double>(opts.microbatchSize) * cfg.seqLength;
    parallel::MemoryPlanner planner(cfg, par);
    stageParams.reserve(static_cast<std::size_t>(par.pp));
    for (int stage = 0; stage < par.pp; ++stage)
        stageParams.push_back(
            Bytes(planner.paramsPerGpu(stage) * kElemBytes));
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

/** One stage visit: @c rank runs microbatch @c mb through one model
 *  chunk (or its iteration tail, at kTail), appending to its device's
 *  op list. */
struct ProgramBuilder::Visit
{
    BuildContext& ctx;
    std::vector<Op>& ops;
    int rank;
    parallel::RankCoords coords;
    int mb;
    bool first; //!< first virtual stage: nothing upstream
    bool last;  //!< last virtual stage: runs the head, nothing downstream
    double ls;  //!< layers the visit covers
};

int
ProgramBuilder::tpGroupId(const Visit& v) const
{
    const parallel::RankCoords& c = v.coords;
    int& id = v.ctx.tpGroupIds[static_cast<std::size_t>(
        c.dpIdx + map.config().dp * c.ppIdx)];
    if (id < 0)
        id = groupIdFor(v.ctx, map.tpGroupDevices(v.rank));
    return id;
}

int
ProgramBuilder::dpGroupId(const Visit& v) const
{
    const parallel::RankCoords& c = v.coords;
    int& id = v.ctx.dpGroupIds[static_cast<std::size_t>(
        c.tpIdx + map.config().tp * c.ppIdx)];
    if (id < 0)
        id = groupIdFor(v.ctx, dpGroupAlive(v.rank));
    return id;
}

int
ProgramBuilder::epGroupId(const Visit& v) const
{
    const auto& par = map.config();
    const parallel::RankCoords& c = v.coords;
    int& id = v.ctx.epGroupIds[static_cast<std::size_t>(
        c.tpIdx + par.tp * (c.ppIdx + par.pp * (c.dpIdx / par.ep)))];
    if (id < 0)
        id = groupIdFor(v.ctx, map.epGroupDevices(v.rank));
    return id;
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

ProgramBuilder::Visit
ProgramBuilder::visit(BuildContext& ctx, int rank, int mb, int chunk) const
{
    const auto& par = map.config();
    parallel::RankCoords c = map.coordsOf(rank);
    int v = std::max(opts.virtualStages, 1);
    int vstage = chunk * par.pp + c.ppIdx;
    return Visit{ctx, ctx.program.deviceOps[opSlot(map.deviceOf(rank))],
                 rank, c, mb, vstage == 0, vstage == par.pp * v - 1,
                 v == 1 ? layersOnStage(c.ppIdx) : layersPerChunk()};
}

Op&
ProgramBuilder::collective(const Visit& v, const char* name,
                           coll::CollectiveKind kind, int group,
                           Bytes bytes) const
{
    Op op = makeOp(OpType::Collective, kernelClassOf(kind), name, v.mb);
    op.ckind = kind;
    op.groupId = group;
    op.bytes = bytes;
    // Expert all-to-all has no hierarchical variant.
    op.topologyAware = opts.topologyAwareCollectives &&
                       kind != coll::CollectiveKind::AllToAll;
    v.ops.push_back(op);
    return v.ops.back();
}

Op&
ProgramBuilder::layerCompute(const Visit& v, hw::KernelClass cls,
                             const char* name, double flops,
                             double weight_elems) const
{
    // The TP-sliced weights read once per visit plus the activations
    // streamed through HBM; one kernel per layer.
    Op op = makeOp(OpType::Compute, cls, name, v.mb);
    op.flops = Flops(flops);
    op.hbmBytes = Bytes(weight_elems / map.config().tp * kElemBytes +
                        kActHbmFactor * tokensPerMicrobatch *
                            cfg.hiddenSize * kElemBytes);
    op.kernels = std::max(1, static_cast<int>(v.ls));
    v.ops.push_back(op);
    return v.ops.back();
}

void
ProgramBuilder::attention(const Visit& v, const char* name,
                          double flop_factor) const
{
    layerCompute(v, hw::KernelClass::Attention, name,
                 flop_factor * v.ls * tokensPerMicrobatch *
                     analytics.attnFwdFlopsPerToken() / map.config().tp,
                 v.ls * analytics.attnParamsPerLayer());
}

void
ProgramBuilder::expertBlock(const Visit& v, const char* dispatch,
                            const char* name, const char* combine,
                            double flop_factor) const
{
    // MoE all-to-all routes tokens to their experts' owners and back.
    const auto& par = map.config();
    auto all_to_all = [&](const char* a2a_name) {
        if (!cfg.isMoe() || par.ep == 1)
            return;
        collective(v, a2a_name, coll::CollectiveKind::AllToAll,
                   epGroupId(v),
                   Bytes(v.ls * tokensPerMicrobatch * cfg.hiddenSize *
                         kElemBytes * cfg.topK))
            .messages = std::max(1, static_cast<int>(v.ls));
    };
    all_to_all(dispatch);
    // Routing imbalance: the busiest rank of the EP group straggles
    // into the combine.
    double imbalance = 1.0;
    if (cfg.isMoe())
        imbalance = 1.0 + std::abs(v.ctx.rng.gaussian(0.0,
                                                      kMoeImbalanceSigma));
    double experts_local =
        cfg.isMoe() ? static_cast<double>(cfg.numExperts) / par.ep : 1.0;
    layerCompute(v,
                 cfg.isMoe() ? hw::KernelClass::MoeGemm
                             : hw::KernelClass::Gemm,
                 name,
                 flop_factor * v.ls * tokensPerMicrobatch *
                     analytics.mlpFwdFlopsPerToken() / par.tp * imbalance,
                 v.ls * experts_local * analytics.mlpParamsPerExpert());
    all_to_all(combine);
}

void
ProgramBuilder::tpAllReduce(const Visit& v, const char* name,
                            bool closes_window) const
{
    // Megatron TP all-reduce after a block. Under cc the first of a
    // layer's two overlaps the next block; the second closes the
    // window before the visit ends.
    const auto& par = map.config();
    if (par.tp == 1)
        return;
    Op& ar = collective(v, name, coll::CollectiveKind::AllReduce,
                        tpGroupId(v),
                        Bytes(v.ls * tokensPerMicrobatch *
                              cfg.hiddenSize * kElemBytes));
    ar.messages = std::max(1, static_cast<int>(v.ls));
    ar.async = opts.ccOverlap && !closes_window;
    if (opts.ccOverlap && closes_window)
        v.ops.push_back(drainOp("cc-drain", v.mb));
}

void
ProgramBuilder::boundary(const Visit& v, OpType type, const char* name,
                         bool downstream) const
{
    // Boundary activations (forward) or their gradients (backward).
    // The tensor is sliced across TP ranks, so TP+PP emits small,
    // un-chunked SendRecv messages (paper Sec. 4.2). Interleaving
    // wraps the last pipeline rank back to rank 0 for the next chunk.
    if (downstream ? v.last : v.first)
        return;
    const auto& par = map.config();
    Op op = makeOp(type, hw::KernelClass::SendRecv, name, v.mb);
    parallel::RankCoords peer = v.coords;
    peer.ppIdx = (peer.ppIdx + (downstream ? 1 : par.pp - 1)) % par.pp;
    op.peerDevice = map.deviceOf(map.rankFromCoords(peer));
    op.bytes =
        Bytes(tokensPerMicrobatch * cfg.hiddenSize * kElemBytes / par.tp);
    op.chunked = (par.tp == 1) || opts.chunkP2p;
    v.ops.push_back(op);
}

void
ProgramBuilder::emitForward(const Visit& v) const
{
    const auto& par = map.config();
    int stage = v.coords.ppIdx;
    // FSDP: gather this stage's full parameters for the microbatch.
    if (par.fsdp && effectiveDp() > 1)
        collective(v, "fsdp-allgather", coll::CollectiveKind::AllGather,
                   dpGroupId(v), stageParamBytes(stage))
            .messages = layersOnStage(stage);
    boundary(v, OpType::Recv, "recv-fwd", false);
    attention(v, "fwd-attn", 1.0);
    tpAllReduce(v, "tp-allreduce-attn", false);
    expertBlock(v, "moe-dispatch", "fwd-mlp", "moe-combine", 1.0);
    tpAllReduce(v, "tp-allreduce-mlp", true);
    // Output head on the last virtual stage: one kernel.
    if (v.last)
        layerCompute(v, hw::KernelClass::Gemm, "fwd-head",
                     tokensPerMicrobatch * analytics.headFlopsPerToken() /
                         par.tp,
                     static_cast<double>(cfg.vocabSize) * cfg.hiddenSize)
            .kernels = 1;
    boundary(v, OpType::Send, "send-fwd", true);
}

void
ProgramBuilder::emitBackward(const Visit& v, bool grad_bucket,
                             int buckets) const
{
    const auto& par = map.config();
    int stage = v.coords.ppIdx;
    double flop_factor =
        cfg.isLora() ? kLoraBwdFlopsFactor : kBwdFlopsFactor;
    boundary(v, OpType::Recv, "recv-bwd", true);
    // Re-materialize stashed activations under recomputation.
    if (opts.actRecompute)
        layerCompute(v, hw::KernelClass::Recompute, "recompute",
                     v.ls * tokensPerMicrobatch *
                         (analytics.attnFwdFlopsPerToken() +
                          analytics.mlpFwdFlopsPerToken()) /
                         par.tp,
                     0.0);
    expertBlock(v, "moe-bwd-dispatch", "bwd-mlp", "moe-bwd-combine",
                flop_factor);
    tpAllReduce(v, "tp-allreduce-bwd1", false);
    attention(v, "bwd-attn", flop_factor);
    tpAllReduce(v, "tp-allreduce-bwd2", true);
    boundary(v, OpType::Send, "send-bwd", false);
    // FSDP reduce-scatters this microbatch's gradients.
    if (par.fsdp && effectiveDp() > 1) {
        Op& rs = collective(v, "fsdp-reducescatter",
                            coll::CollectiveKind::ReduceScatter,
                            dpGroupId(v), gradBytesPerGpu(stage));
        rs.messages = layersOnStage(stage);
        rs.async = opts.ccOverlap;
    }
    // Overlapped data-parallel gradient bucket (cc enabled): sync the
    // gradients of the tail microbatches while backward continues.
    if (grad_bucket)
        collective(v, "dp-grad-bucket", gradSyncKind(opts.zero1),
                   dpGroupId(v),
                   gradBytesPerGpu(stage) / std::max(buckets, 1))
            .async = true;
}

void
ProgramBuilder::emitIterationTail(const Visit& v) const
{
    const auto& par = map.config();
    int stage = v.coords.ppIdx;
    int dp = effectiveDp();
    bool plain_dp = !opts.inference && dp > 1 && !par.fsdp;
    // Overlapped buckets were issued during the backward tail.
    if (plain_dp && opts.ccOverlap)
        v.ops.push_back(drainOp("dp-grad-drain", v.mb));
    else if (plain_dp)
        collective(v, "dp-grad-sync", gradSyncKind(opts.zero1),
                   dpGroupId(v), gradBytesPerGpu(stage));

    // Optimizer step (HBM-bound). ZeRO-1 / FSDP shard the work; a
    // shrunk elastic world re-shards across the survivors.
    if (!opts.inference) {
        double trainable =
            stageParamBytes(stage).value() / kElemBytes *
            (analytics.trainableParams() / analytics.totalParams());
        double shard = par.fsdp || (opts.zero1 && dp > 1) ? dp : 1.0;
        Op opt = makeOp(OpType::Compute, hw::KernelClass::Optimizer,
                        "optimizer-step", v.mb);
        opt.flops = Flops(trainable * kOptimizerFlopsPerParam / shard);
        opt.hbmBytes = Bytes(trainable * kOptimizerBytesPerParam / shard);
        v.ops.push_back(opt);
    }

    // ZeRO-1 gathers the freshly updated parameter shards.
    if (plain_dp && opts.zero1)
        collective(v, "zero1-param-allgather",
                   coll::CollectiveKind::AllGather, dpGroupId(v),
                   gradBytesPerGpu(stage));

    v.ops.push_back(drainOp("iteration-drain", v.mb));
}

void
ProgramBuilder::emitRank(BuildContext& ctx, int rank) const
{
    // Megatron-style interleaved 1F1B over v model chunks per rank
    // (classic 1F1B at v = 1): warmup forwards, steady
    // one-forward-one-backward, cooldown backwards. Microbatches
    // advance in groups of pp, cycling through the chunks, so the
    // pipeline fills with v*m smaller stage visits and the bubble
    // shrinks accordingly.
    const auto& par = map.config();
    Visit tail = visit(ctx, rank, kTail, 0);
    int stage = tail.coords.ppIdx;
    int v = std::max(opts.virtualStages, 1);
    int total = effectiveMicrobatches() * v;
    if (opts.inference) {
        for (int mb = 0; mb < total; ++mb)
            emitForward(visit(ctx, rank, mb, 0));
        emitIterationTail(tail);
        return;
    }
    int buckets = std::min(kGradBuckets, total);
    bool overlap = opts.ccOverlap && effectiveDp() > 1 && !par.fsdp;

    // Schedule slot k -> (chunk, microbatch), the identity at v = 1.
    // Both maps are rank-independent, which keeps the per-channel
    // send/recv sequences FIFO-consistent across ranks.
    auto at = [&](int k, bool backward) {
        int chunk = (k / par.pp) % v;
        int mb = (k / (par.pp * v)) * par.pp + k % par.pp;
        return visit(ctx, rank, mb, backward ? v - 1 - chunk : chunk);
    };
    auto backward = [&](int k) {
        emitBackward(at(k, true), overlap && k >= total - buckets,
                     buckets);
    };
    // Warmup forwards: 1F1B's pp-1-stage, Megatron's interleaved depth
    // for v > 1.
    int warmup = v == 1 ? par.pp - 1 - stage
                        : 2 * (par.pp - 1 - stage) + (v - 1) * par.pp;
    warmup = std::min(warmup, total);
    for (int k = 0; k < warmup; ++k)
        emitForward(at(k, false));
    for (int k = warmup; k < total; ++k) {
        emitForward(at(k, false));
        backward(k - warmup);
    }
    for (int k = total - warmup; k < total; ++k)
        backward(k);

    emitIterationTail(tail);
}

Program
ProgramBuilder::build(int iteration) const
{
    BuildContext ctx;
    CHARLLM_ASSERT(fold == nullptr || elastic == nullptr,
                   "symmetry fold and elastic shrink are mutually "
                   "exclusive");
    ctx.rng = Rng(kMoeRoutingSeed * 0x9e3779b9ULL +
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
