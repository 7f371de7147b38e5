/**
 * @file
 * Analytic parameter / FLOP / byte / activation-memory model of the
 * transformer configurations. All downstream cost modelling (runtime
 * operator graphs, memory planning, scaling projection) derives from
 * these closed-form quantities.
 */

#ifndef CHARLLM_MODEL_ANALYTICS_HH
#define CHARLLM_MODEL_ANALYTICS_HH

#include "common/logging.hh"
#include "model/transformer_config.hh"

namespace charllm {
namespace model {

/** Append to @p problems each shape range of @p config it breaks. */
void addModelProblems(Problems& problems, const TransformerConfig& config);

/**
 * Closed-form per-model quantities. FLOPs use the 2*MACs convention;
 * "per token" means per sequence token of one sample.
 */
class ModelAnalytics
{
  public:
    explicit ModelAnalytics(const TransformerConfig& config);

    const TransformerConfig& config() const { return cfg; }

    // ---- parameters ------------------------------------------------------
    /** Attention parameters of one layer (QKV + output projection). */
    double attnParamsPerLayer() const;

    /** Parameters of one dense MLP (or of ONE expert for MoE). */
    double mlpParamsPerExpert() const;

    /** Router parameters per MoE layer (0 for dense). */
    double routerParamsPerLayer() const;

    /** All parameters of one layer (incl. every expert and norms). */
    double paramsPerLayer() const;

    /** Input embedding + (untied) output head parameters. */
    double embeddingParams() const;

    /** Total model parameters. */
    double totalParams() const;

    /** Trainable parameters (all, or only adapters under LoRA). */
    double trainableParams() const;

    // ---- forward FLOPs per token ---------------------------------------
    /** Attention projections + score/context kernels. */
    double attnFwdFlopsPerToken() const;

    /** MLP/expert FLOPs actually executed (topK experts for MoE). */
    double mlpFwdFlopsPerToken() const;

    /** Output head (vocabulary projection) FLOPs per token. */
    double headFlopsPerToken() const;

    // ---- memory ---------------------------------------------------------
    /**
     * Stashed activation bytes per token per layer under full
     * stashing (Korthikanti et al. coefficient, flash-attention
     * regime, before tensor-parallel division).
     */
    double activationBytesPerTokenPerLayer() const;

    /** Stashed bytes per token per layer with full recomputation. */
    double checkpointBytesPerTokenPerLayer() const;

  private:
    TransformerConfig cfg;
};

} // namespace model
} // namespace charllm

#endif // CHARLLM_MODEL_ANALYTICS_HH
