#include "parallel/memory_planner.hh"

#include <algorithm>

#include "common/logging.hh"

namespace charllm {
namespace parallel {

namespace {
constexpr double kBf16 = 2.0;       // bytes per weight/activation
constexpr double kGradBytes = 2.0;  // bf16 gradient buffers
constexpr double kAdamBytes = 12.0; // fp32 momentum + variance + master
constexpr double kBaseWorkspace = 3.0e9; // CUDA ctx, cuDNN, NCCL, frag
} // namespace

void
addExpertProblems(Problems& problems,
                  const model::TransformerConfig& model_config,
                  const ParallelConfig& par)
{
    require(problems,
            !par.positiveWidths() || !model_config.isMoe() ||
                model_config.numExperts % par.ep == 0,
            "ep (", par.ep, ") must divide the expert count (",
            model_config.numExperts, ")");
}

MemoryPlanner::MemoryPlanner(const model::TransformerConfig& model_config,
                             const ParallelConfig& parallel_config)
    : analytics(model_config), par(parallel_config)
{
    par.validate();
    Problems problems;
    addExpertProblems(problems, model_config, par);
    CHARLLM_ASSERT(problems.empty(), problems.front());
}

int
MemoryPlanner::layersOnStage(int stage) const
{
    int layers = analytics.config().numLayers;
    int base = layers / par.pp;
    int extra = layers % par.pp;
    return base + (stage < extra ? 1 : 0);
}

double
MemoryPlanner::paramsPerGpu(int stage) const
{
    const auto& cfg = analytics.config();
    double experts_local =
        cfg.isMoe() ? static_cast<double>(cfg.numExperts) / par.ep : 1.0;
    double per_layer =
        analytics.attnParamsPerLayer() / par.tp +
        experts_local * analytics.mlpParamsPerExpert() / par.tp +
        analytics.routerParamsPerLayer();
    double params = layersOnStage(stage) * per_layer;
    if (stage == 0 || stage == par.pp - 1)
        params += analytics.embeddingParams() / (cfg.swiGlu ? 2.0 : 1.0) /
                  par.tp;
    return params;
}

MemoryBreakdown
MemoryPlanner::planStage(int stage, const MemoryOptions& opts) const
{
    const auto& cfg = analytics.config();
    MemoryBreakdown mem;

    double params = paramsPerGpu(stage);
    mem.weights = params * kBf16;

    if (opts.inference) {
        // Forward-only: weights plus a transient working set.
        double tokens = static_cast<double>(opts.microbatchSize) *
                        cfg.seqLength;
        mem.activations =
            tokens * analytics.checkpointBytesPerTokenPerLayer() /
            par.tp * layersOnStage(stage) *
            std::max(opts.microbatchesInFlight, 1);
        mem.workspace =
            kBaseWorkspace +
            tokens * analytics.activationBytesPerTokenPerLayer() /
                par.tp;
        return mem;
    }

    // Trainable fraction: LoRA freezes the base model.
    double trainable = params;
    if (cfg.isLora()) {
        trainable = params * (analytics.trainableParams() /
                              analytics.totalParams());
    }
    mem.gradients = trainable * kGradBytes;

    double opt_shard = 1.0;
    if (par.fsdp) {
        // FSDP shards everything across the data dimension and
        // re-gathers one layer at a time.
        opt_shard = par.dp;
        mem.weights /= par.dp;
        mem.gradients /= par.dp;
        mem.workspace += analytics.paramsPerLayer() / par.tp * kBf16;
    } else if (opts.zero1) {
        opt_shard = par.dp;
    }
    mem.optimizer = trainable * kAdamBytes / opt_shard;

    // Activations: tokens per microbatch, per-layer stash divided by
    // TP (sequence parallelism), times in-flight microbatches.
    double tokens = static_cast<double>(opts.microbatchSize) *
                    cfg.seqLength;
    double per_layer = opts.actRecompute
                           ? analytics.checkpointBytesPerTokenPerLayer()
                           : analytics.activationBytesPerTokenPerLayer();
    double in_flight = std::max(opts.microbatchesInFlight, 1);
    mem.activations = tokens * per_layer / par.tp *
                      layersOnStage(stage) * in_flight;
    if (opts.actRecompute) {
        // Workspace for re-materializing one layer's activations.
        mem.workspace +=
            tokens * analytics.activationBytesPerTokenPerLayer() /
            par.tp;
    }
    mem.workspace += kBaseWorkspace;
    return mem;
}

MemoryBreakdown
MemoryPlanner::worstStage(const MemoryOptions& opts) const
{
    MemoryBreakdown worst;
    for (int s = 0; s < par.pp; ++s) {
        MemoryOptions stage_opts = opts;
        // 1F1B keeps up to (pp - s) microbatches in flight on stage s.
        stage_opts.microbatchesInFlight =
            std::min(opts.microbatchesInFlight, par.pp - s);
        MemoryBreakdown mem = planStage(s, stage_opts);
        if (mem.total() > worst.total())
            worst = mem;
    }
    return worst;
}

bool
MemoryPlanner::fits(Bytes gpu_memory, const MemoryOptions& opts) const
{
    return worstStage(opts).total() <=
           gpu_memory.value() * kUsableFraction;
}

} // namespace parallel
} // namespace charllm
