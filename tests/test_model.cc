/**
 * @file
 * Tests for the model analytics: parameter counts must match the
 * published sizes (Table 1), and FLOP/memory formulas must scale
 * correctly.
 */

#include <gtest/gtest.h>

#include "model/analytics.hh"
#include "model/transformer_config.hh"

namespace {

using namespace charllm;
using namespace charllm::model;

double
paramsB(const TransformerConfig& cfg)
{
    return ModelAnalytics(cfg).totalParams() / 1e9;
}

// ---- Table 1 parameter counts ----------------------------------------------

TEST(ModelZoo, Gpt3_175B)
{
    EXPECT_NEAR(paramsB(gpt3_175b()), 175.0, 5.0);
}

TEST(ModelZoo, Gpt3_30B)
{
    EXPECT_NEAR(paramsB(gpt3_30b()), 30.0, 2.0);
}

TEST(ModelZoo, Gpt3_13B)
{
    EXPECT_NEAR(paramsB(gpt3_13b()), 13.0, 1.0);
}

TEST(ModelZoo, Llama3_70B)
{
    EXPECT_NEAR(paramsB(llama3_70b()), 70.0, 3.0);
}

TEST(ModelZoo, Llama3_30B)
{
    EXPECT_NEAR(paramsB(llama3_30b()), 30.0, 2.0);
}

TEST(ModelZoo, Mixtral_8x22B)
{
    EXPECT_NEAR(paramsB(mixtral_8x22b()), 141.0, 5.0);
}

TEST(ModelZoo, Mixtral_8x7B)
{
    EXPECT_NEAR(paramsB(mixtral_8x7b()), 46.7, 2.0);
}

TEST(ModelZoo, Mixtral_4x7B)
{
    double full = paramsB(mixtral_8x7b());
    double reduced = paramsB(mixtral_4x7b());
    EXPECT_LT(reduced, full * 0.65);
    EXPECT_GT(reduced, full * 0.4);
}

TEST(ModelZoo, Table1SetComplete)
{
    auto models = table1Models();
    EXPECT_EQ(models.size(), 6u);
}

// ---- structural properties --------------------------------------------------

TEST(Analytics, GqaShrinksAttentionParams)
{
    TransformerConfig mha = llama3_70b();
    mha.numQueryGroups = mha.numHeads;
    EXPECT_GT(ModelAnalytics(mha).attnParamsPerLayer(),
              ModelAnalytics(llama3_70b()).attnParamsPerLayer());
}

TEST(Analytics, MoeExecutesOnlyTopKExperts)
{
    auto cfg = mixtral_8x7b();
    ModelAnalytics a(cfg);
    // Executed MLP flops cover topK experts, not all 8.
    double per_expert_flops = 2.0 * a.mlpParamsPerExpert();
    EXPECT_NEAR(a.mlpFwdFlopsPerToken(),
                cfg.topK * per_expert_flops +
                    2.0 * a.routerParamsPerLayer(),
                1.0);
    // But all experts' parameters exist.
    EXPECT_GT(a.paramsPerLayer(),
              cfg.numExperts * a.mlpParamsPerExpert());
}

TEST(Analytics, FwdFlopsApproxTwoParamsPerToken)
{
    // Dense models: fwd flops/token ~ 2 * params (plus attention
    // score terms and head).
    auto cfg = gpt3_175b();
    ModelAnalytics a(cfg);
    double fwd = cfg.numLayers * (a.attnFwdFlopsPerToken() +
                                  a.mlpFwdFlopsPerToken()) +
                 a.headFlopsPerToken();
    double ratio = fwd / a.totalParams();
    EXPECT_GT(ratio, 1.9);
    EXPECT_LT(ratio, 2.6);
}

TEST(Analytics, RecomputeStashFarSmallerThanFull)
{
    ModelAnalytics a(gpt3_175b());
    EXPECT_LT(a.checkpointBytesPerTokenPerLayer() * 10.0,
              a.activationBytesPerTokenPerLayer());
}

TEST(Analytics, LoraTrainableParamsTiny)
{
    auto cfg = withLora(llama3_70b(), 16);
    ModelAnalytics a(cfg);
    EXPECT_TRUE(cfg.isLora());
    EXPECT_LT(a.trainableParams(), 0.01 * a.totalParams());
    // Full training: everything trainable.
    ModelAnalytics full{llama3_70b()};
    EXPECT_DOUBLE_EQ(full.trainableParams(), full.totalParams());
}

TEST(Analytics, HeadFlopsScaleWithVocab)
{
    auto small = gpt3_175b();
    auto big = gpt3_175b();
    big.vocabSize *= 2;
    EXPECT_NEAR(ModelAnalytics(big).headFlopsPerToken(),
                2.0 * ModelAnalytics(small).headFlopsPerToken(), 1.0);
}

} // namespace
