#include "model/analytics.hh"

#include "common/logging.hh"

namespace charllm {
namespace model {

void
addModelProblems(Problems& problems, const TransformerConfig& m)
{
    require(problems,
            m.numLayers > 0 && m.hiddenSize > 0 && m.numHeads > 0 &&
                m.seqLength > 0,
            "model numLayers, hiddenSize, numHeads and seqLength must be "
            "positive (got ", m.numLayers, ", ", m.hiddenSize, ", ",
            m.numHeads, ", ", m.seqLength, ")");
    require(problems,
            m.numQueryGroups > 0 && m.numHeads % m.numQueryGroups == 0,
            "model numQueryGroups (", m.numQueryGroups,
            ") must divide numHeads (", m.numHeads, ")");
    require(problems, !m.isMoe() || (m.topK > 0 && m.topK <= m.numExperts),
            "MoE topK (", m.topK, ") must be in 1..numExperts (",
            m.numExperts, ")");
}

ModelAnalytics::ModelAnalytics(const TransformerConfig& config)
    : cfg(config)
{
    Problems problems;
    addModelProblems(problems, cfg);
    CHARLLM_ASSERT(problems.empty(), problems.front());
}

double
ModelAnalytics::attnParamsPerLayer() const
{
    double h = cfg.hiddenSize;
    double kv_ratio = static_cast<double>(cfg.numQueryGroups) /
                      static_cast<double>(cfg.numHeads);
    // Q and output projections are h*h; K and V shrink with GQA.
    return h * h * (2.0 + 2.0 * kv_ratio);
}

double
ModelAnalytics::mlpParamsPerExpert() const
{
    double h = cfg.hiddenSize;
    double f = cfg.ffnHiddenSize;
    return (cfg.swiGlu ? 3.0 : 2.0) * h * f;
}

double
ModelAnalytics::routerParamsPerLayer() const
{
    if (!cfg.isMoe())
        return 0.0;
    return static_cast<double>(cfg.hiddenSize) * cfg.numExperts;
}

double
ModelAnalytics::paramsPerLayer() const
{
    double experts = cfg.isMoe() ? cfg.numExperts : 1.0;
    double norms = 2.0 * 2.0 * cfg.hiddenSize; // two RMS/LN per layer
    return attnParamsPerLayer() + experts * mlpParamsPerExpert() +
           routerParamsPerLayer() + norms;
}

double
ModelAnalytics::embeddingParams() const
{
    // Input embedding plus untied output head for Llama/Mixtral;
    // GPT-3 ties them.
    double emb = static_cast<double>(cfg.vocabSize) * cfg.hiddenSize;
    return cfg.swiGlu ? 2.0 * emb : emb;
}

double
ModelAnalytics::totalParams() const
{
    return cfg.numLayers * paramsPerLayer() + embeddingParams();
}

double
ModelAnalytics::trainableParams() const
{
    if (!cfg.isLora())
        return totalParams();
    // Adapters on Q/V projections and the (first) MLP matrix:
    // each adapter is two matrices (h x r) and (r x d_out).
    double h = cfg.hiddenSize;
    double r = cfg.loraRank;
    double per_layer = 2.0 * (h * r + r * h)   // Q and V adapters
                       + (h * r + r * cfg.ffnHiddenSize);
    return cfg.numLayers * per_layer;
}

double
ModelAnalytics::attnFwdFlopsPerToken() const
{
    double h = cfg.hiddenSize;
    double s = cfg.seqLength;
    // Projections: 2 FLOPs per parameter per token; score/context:
    // 2*s*h each for QK^T and AV (causal halves it).
    return 2.0 * attnParamsPerLayer() + 0.5 * 4.0 * s * h;
}

double
ModelAnalytics::mlpFwdFlopsPerToken() const
{
    double routed = cfg.isMoe() ? static_cast<double>(cfg.topK) : 1.0;
    return routed * 2.0 * mlpParamsPerExpert() +
           2.0 * routerParamsPerLayer();
}

double
ModelAnalytics::headFlopsPerToken() const
{
    return 2.0 * static_cast<double>(cfg.vocabSize) * cfg.hiddenSize;
}

double
ModelAnalytics::activationBytesPerTokenPerLayer() const
{
    // Flash-attention-era stash: ~34 bytes/token/hidden-unit at BF16
    // (Korthikanti et al. without the quadratic score term).
    return 34.0 * cfg.hiddenSize;
}

double
ModelAnalytics::checkpointBytesPerTokenPerLayer() const
{
    // Full recomputation keeps only the layer input.
    return TransformerConfig::kBytesPerElement * cfg.hiddenSize;
}

} // namespace model
} // namespace charllm
