/**
 * @file
 * Unit tests for the workload module: model presets, parameter
 * counts, layer op graphs, and activation accounting.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "util/error.h"
#include "workload/activation.h"
#include "workload/graph.h"
#include "workload/presets.h"

namespace optimus {
namespace {

double
sumFlops(const std::vector<Op> &ops)
{
    double total = 0.0;
    for (const Op &op : ops)
        total += opFlops(op);
    return total;
}

TEST(ModelConfig, ParameterCountsMatchNamedSizes)
{
    struct Case
    {
        TransformerConfig cfg;
        double expected;
    };
    const Case cases[] = {
        {models::gpt7b(), 7e9},       {models::gpt22b(), 22e9},
        {models::gpt175b(), 175e9},   {models::gpt310b(), 310e9},
        {models::gpt530b(), 530e9},   {models::gpt1008b(), 1008e9},
        {models::llama2_7b(), 6.74e9}, {models::llama2_13b(), 13.0e9},
        {models::llama2_70b(), 69e9},
        {models::llama3_8b(), 8.0e9},
        {models::llama3_70b(), 70.6e9},
        {models::llama3_405b(), 405e9},
    };
    for (const Case &c : cases) {
        double n = c.cfg.parameterCount();
        EXPECT_NEAR(n, c.expected, c.expected * 0.10)
            << c.cfg.name << " has " << n << " params";
    }
}

TEST(ModelConfig, HeadDimAndValidation)
{
    TransformerConfig cfg = models::gpt175b();
    EXPECT_EQ(cfg.headDim(), 128);

    cfg.numHeads = 100;  // does not divide hidden 12288
    EXPECT_THROW(cfg.validate(), ConfigError);

    cfg = models::llama2_70b();
    EXPECT_EQ(cfg.numKvHeads, 8);
    EXPECT_NO_THROW(cfg.validate());
    cfg.numKvHeads = 7;  // heads not a multiple
    EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(ModelConfig, GqaShrinksLayerParams)
{
    TransformerConfig mha = models::llama2_70b();
    mha.numKvHeads = mha.numHeads;
    EXPECT_LT(models::llama2_70b().layerParameterCount(),
              mha.layerParameterCount());
}

TEST(LayerGraph, ForwardFlopsMatchClosedForm)
{
    // GPT layer forward GEMM FLOPs = 24*T*h^2 + 4*b*s^2*h with f=4h.
    TransformerConfig cfg = models::gpt175b();
    LayerGraphParams p;
    p.batch = 1;
    p.seq = 2048;
    p.tensorParallel = 1;
    double gemm_flops = 0.0;
    for (const Op &op : layerForwardOps(cfg, p))
        if (op.kind == OpKind::Gemm)
            gemm_flops += opFlops(op);

    double T = 2048.0;
    double h = 12288.0;
    double expected = 24.0 * T * h * h + 4.0 * T * 2048.0 * h;
    EXPECT_NEAR(gemm_flops, expected, expected * 1e-9);
}

TEST(LayerGraph, TensorParallelShardsEvenly)
{
    TransformerConfig cfg = models::gpt175b();
    LayerGraphParams p;
    p.batch = 2;
    p.seq = 2048;

    p.tensorParallel = 1;
    double full = sumFlops(layerForwardOps(cfg, p));
    p.tensorParallel = 8;
    double sharded = 0.0;
    for (const Op &op : layerForwardOps(cfg, p))
        if (op.kind == OpKind::Gemm)
            sharded += opFlops(op);

    // GEMM work shards by exactly 8; stream ops (norms, residuals) do
    // not shard without SP.
    double full_gemm = 0.0;
    p.tensorParallel = 1;
    for (const Op &op : layerForwardOps(cfg, p))
        if (op.kind == OpKind::Gemm)
            full_gemm += opFlops(op);
    EXPECT_NEAR(sharded, full_gemm / 8.0, full_gemm * 1e-9);
    EXPECT_GT(full, full_gemm);  // stream ops exist
}

TEST(LayerGraph, SequenceParallelShardsNormRows)
{
    TransformerConfig cfg = models::gpt22b();
    LayerGraphParams p;
    p.batch = 1;
    p.seq = 2048;
    p.tensorParallel = 8;

    auto norm_rows = [&](bool sp) {
        p.sequenceParallel = sp;
        for (const Op &op : layerForwardOps(cfg, p))
            if (op.kind == OpKind::LayerNorm)
                return op.rows;
        return -1.0;
    };
    EXPECT_DOUBLE_EQ(norm_rows(false), 2048.0);
    EXPECT_DOUBLE_EQ(norm_rows(true), 256.0);
}

TEST(LayerGraph, BackwardIsTwiceForwardGemmWork)
{
    TransformerConfig cfg = models::gpt22b();
    LayerGraphParams p;
    p.batch = 1;
    p.seq = 2048;
    p.tensorParallel = 8;

    double fwd = 0.0, bwd = 0.0;
    for (const Op &op : layerForwardOps(cfg, p))
        if (op.kind == OpKind::Gemm)
            fwd += opFlops(op);
    for (const Op &op : layerBackwardOps(cfg, p))
        if (op.kind == OpKind::Gemm)
            bwd += opFlops(op);
    EXPECT_NEAR(bwd, 2.0 * fwd, fwd * 1e-9);
}

TEST(LayerGraph, TrainingIncludesDropout)
{
    TransformerConfig cfg = models::gpt22b();
    LayerGraphParams p;
    p.training = true;
    auto has = [&](const char *name) {
        for (const Op &op : layerForwardOps(cfg, p))
            if (op.name == name)
                return true;
        return false;
    };
    EXPECT_TRUE(has("attn-dropout"));
    p.training = false;
    EXPECT_FALSE(has("attn-dropout"));
}

TEST(LayerGraph, SwiGluHasTwoGateUpGemms)
{
    TransformerConfig cfg = models::llama2_13b();
    LayerGraphParams p;
    for (const Op &op : layerForwardOps(cfg, p)) {
        if (op.name == "mlp-gate-up") {
            EXPECT_EQ(op.count, 2);
            return;
        }
    }
    FAIL() << "mlp-gate-up op not found";
}

TEST(LayerGraph, PrefillLaunchesAttentionPerHead)
{
    TransformerConfig cfg = models::llama2_13b();
    LayerGraphParams p;
    p.training = false;
    p.tensorParallel = 1;
    for (const Op &op : layerForwardOps(cfg, p)) {
        if (op.name == "qk^T") {
            EXPECT_EQ(op.launchCount, cfg.numHeads);
        }
    }
    p.training = true;
    for (const Op &op : layerForwardOps(cfg, p)) {
        if (op.name == "qk^T") {
            EXPECT_EQ(op.launchCount, 1);
        }
    }
}

TEST(DecodeGraph, AttendsOverFullContext)
{
    TransformerConfig cfg = models::llama2_13b();
    std::vector<Op> ops = decodeLayerOps(cfg, 1, 300, 1,
                                         Precision::FP16);
    bool found = false;
    for (const Op &op : ops) {
        if (op.name == "qk^T") {
            EXPECT_EQ(op.gemm.m, 1);
            EXPECT_EQ(op.gemm.n, 300);
            EXPECT_EQ(op.gemm.k, cfg.headDim());
            EXPECT_EQ(op.count, cfg.numHeads);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(DecodeGraph, GqaSharesKvCacheReads)
{
    // Grouped-query attention streams each K/V head once per group:
    // the attention GEMMs' DRAM traffic scales with the KV heads, not
    // the query heads (the GQA bandwidth saving at long context).
    TransformerConfig gqa = models::llama2_70b();
    TransformerConfig mha = gqa;
    mha.numKvHeads = mha.numHeads;

    Device dev;
    dev.name = "dram-only";
    dev.matrixThroughput = {{Precision::FP16, 1e15}};
    dev.vectorThroughput = {{Precision::FP32, 1e13}};
    dev.mem = {{"DRAM", 1e12, 1e12, 1.0}};

    auto attn_bytes = [&](const TransformerConfig &cfg) {
        double bytes = 0.0;
        for (const Op &op : decodeLayerOps(cfg, 1, 8192, 1,
                                           Precision::FP16))
            if (op.name == "qk^T" || op.name == "attn-v")
                bytes += evaluateOp(dev, op).bytesPerLevel[0];
        return bytes;
    };
    // 64 query heads vs 8 KV heads: ~8x less cache traffic.
    double ratio = attn_bytes(mha) / attn_bytes(gqa);
    EXPECT_GT(ratio, 5.0);
    EXPECT_LE(ratio, 8.5);
}

TEST(DecodeGraph, GqaShrinksKvAppend)
{
    TransformerConfig gqa = models::llama2_70b();
    TransformerConfig mha = gqa;
    mha.numKvHeads = mha.numHeads;
    auto kv_elems = [](const TransformerConfig &cfg) {
        for (const Op &op : decodeLayerOps(cfg, 1, 100, 1,
                                           Precision::FP16))
            if (op.name == "kv-append")
                return op.elements;
        return -1.0;
    };
    EXPECT_DOUBLE_EQ(kv_elems(gqa), kv_elems(mha) / 8.0);
}

/** Every Op field, compared exactly. */
void
expectSameOp(const Op &a, const Op &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.gemm.m, b.gemm.m);
    EXPECT_EQ(a.gemm.n, b.gemm.n);
    EXPECT_EQ(a.gemm.k, b.gemm.k);
    EXPECT_EQ(a.gemm.precision, b.gemm.precision);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.launchCount, b.launchCount);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.cols, b.cols);
    EXPECT_EQ(a.elements, b.elements);
    EXPECT_EQ(a.flopsPerElement, b.flopsPerElement);
    EXPECT_EQ(a.fusedFlops, b.fusedFlops);
    EXPECT_EQ(a.fusedDramBytes, b.fusedDramBytes);
    EXPECT_EQ(a.fusedOnChipBytes, b.fusedOnChipBytes);
    EXPECT_EQ(a.fusedPrecision, b.fusedPrecision);
    EXPECT_EQ(a.streamBytes, b.streamBytes);
    EXPECT_EQ(a.streamFlops, b.streamFlops);
    EXPECT_EQ(a.streamPrecision, b.streamPrecision);
    EXPECT_EQ(a.fused, b.fused);
}

TEST(DecodeGraph, OnlyAttentionOpsDependOnContext)
{
    // The token-range decode lowering prices every decode op but the
    // DecodeAttention ones once per generation; this is the
    // invariance it relies on.
    for (const TransformerConfig &cfg :
         {models::llama2_7b(), models::llama2_70b(),
          models::mixtral8x7b()}) {
        SCOPED_TRACE(cfg.name);
        const long long tp = 2;
        std::vector<Op> short_ctx = decodeLayerOps(
            cfg, 4, 1, tp, Precision::FP16, Precision::FP8);
        std::vector<Op> long_ctx = decodeLayerOps(
            cfg, 4, 8192, tp, Precision::FP16, Precision::FP8);
        ASSERT_EQ(short_ctx.size(), long_ctx.size());

        for (long long context : {1LL, 8192LL}) {
            const std::vector<Op> &layer =
                context == 1 ? short_ctx : long_ctx;
            const DecodeAttention builder =
                decodeAttention(cfg, 4, tp, Precision::FP8);
            std::vector<Op> attn;
            for (int k = 0; k < DecodeAttention::kOps; ++k)
                attn.push_back(
                    builder.op(DecodeAttention::Kind(k), context));
            ASSERT_EQ(3u, attn.size());
            EXPECT_EQ("qk^T", attn[0].name);
            EXPECT_EQ("attn-softmax", attn[1].name);
            EXPECT_EQ("attn-v", attn[2].name);
            size_t matched = 0;
            for (const Op &op : layer)
                for (const Op &a : attn)
                    if (op.name == a.name) {
                        expectSameOp(a, op);
                        ++matched;
                    }
            EXPECT_EQ(attn.size(), matched);
        }

        size_t invariant = 0;
        for (size_t i = 0; i < short_ctx.size(); ++i) {
            const std::string &name = short_ctx[i].name;
            if (name == "qk^T" || name == "attn-softmax" ||
                name == "attn-v")
                continue;
            SCOPED_TRACE(name);
            expectSameOp(short_ctx[i], long_ctx[i]);
            ++invariant;
        }
        EXPECT_EQ(short_ctx.size() - 3, invariant);
    }
}

TEST(HeadGraph, LmHeadShape)
{
    TransformerConfig cfg = models::gpt22b();
    std::vector<Op> ops = headOps(cfg, 4096, 8, Precision::FP16);
    bool found = false;
    for (const Op &op : ops) {
        if (op.name == "lm-head") {
            EXPECT_EQ(op.gemm.m, 4096);
            EXPECT_EQ(op.gemm.n, cfg.vocabSize / 8);
            EXPECT_EQ(op.gemm.k, cfg.hiddenSize);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

// ---- Activation accounting ------------------------------------------

TEST(Activation, MatchesKorthikantiClosedForm)
{
    // No parallelism, GPT (f = 4h): total = 34 s b h + 5 a s^2 b.
    TransformerConfig cfg = models::gpt175b();
    ActivationParams p;
    p.microbatch = 2;
    p.seq = 2048;
    ActivationBreakdown br = layerActivations(cfg, p);
    double sbh = 2048.0 * 2.0 * 12288.0;
    double as2b = 96.0 * 2048.0 * 2048.0 * 2.0;
    EXPECT_NEAR(br.total(), 34.0 * sbh + 5.0 * as2b, 1.0);
    EXPECT_NEAR(br.scores, 5.0 * as2b, 1.0);
    EXPECT_NEAR(br.input, 2.0 * sbh, 1.0);
}

TEST(Activation, TensorParallelClosedForm)
{
    // With TP t: s b h (10 + 24/t) + 5 a s^2 b / t.
    TransformerConfig cfg = models::gpt175b();
    ActivationParams p;
    p.microbatch = 1;
    p.seq = 2048;
    p.tensorParallel = 8;
    ActivationBreakdown br = layerActivations(cfg, p);
    double sbh = 2048.0 * 12288.0;
    double as2b = 96.0 * 2048.0 * 2048.0;
    EXPECT_NEAR(br.total(), sbh * (10.0 + 24.0 / 8.0) +
                                5.0 * as2b / 8.0,
                1.0);
}

TEST(Activation, SequenceParallelClosedForm)
{
    // With TP+SP: s b h 34/t + 5 a s^2 b / t.
    TransformerConfig cfg = models::gpt175b();
    ActivationParams p;
    p.microbatch = 1;
    p.seq = 2048;
    p.tensorParallel = 8;
    p.sequenceParallel = true;
    ActivationBreakdown br = layerActivations(cfg, p);
    double sbh = 2048.0 * 12288.0;
    double as2b = 96.0 * 2048.0 * 2048.0;
    EXPECT_NEAR(br.total(), (34.0 * sbh + 5.0 * as2b) / 8.0, 1.0);
}

TEST(Activation, SelectiveDropsExactlyTheScores)
{
    // Eq. 2.
    TransformerConfig cfg = models::gpt22b();
    ActivationParams p;
    ActivationBreakdown br = layerActivations(cfg, p);
    double sel = activationMemory(cfg, p, 10, Recompute::Selective);
    EXPECT_NEAR(sel, 10.0 * (br.total() - br.scores), 1.0);
}

TEST(Activation, FullRecomputeEquationOne)
{
    TransformerConfig cfg = models::gpt22b();
    ActivationParams p;
    ActivationBreakdown br = layerActivations(cfg, p);
    const long long L = 12;

    // Default: checkpoint every layer (N_ckp = L).
    double full = activationMemory(cfg, p, L, Recompute::Full);
    EXPECT_NEAR(full, L * br.input + (br.total() - br.input), 1.0);

    // Explicit N_ckp = 3: Eq. 1 verbatim.
    double ckp3 = activationMemory(cfg, p, L, Recompute::Full, 3);
    EXPECT_NEAR(ckp3,
                3.0 * br.input + (L / 3.0) * (br.total() - br.input),
                1.0);

    EXPECT_THROW(activationMemory(cfg, p, L, Recompute::Full, 20),
                 ConfigError);
}

TEST(Activation, StrategyOrdering)
{
    TransformerConfig cfg = models::gpt175b();
    ActivationParams p;
    p.tensorParallel = 8;
    double none = activationMemory(cfg, p, 12, Recompute::None);
    double sel = activationMemory(cfg, p, 12, Recompute::Selective);
    double full = activationMemory(cfg, p, 12, Recompute::Full);
    EXPECT_GT(none, sel);
    EXPECT_GT(sel, full);
}

TEST(Activation, RecomputeForwardFraction)
{
    TransformerConfig cfg = models::gpt175b();
    ActivationParams p;
    p.tensorParallel = 8;
    EXPECT_DOUBLE_EQ(
        recomputeForwardFraction(cfg, p, Recompute::None), 0.0);
    EXPECT_DOUBLE_EQ(
        recomputeForwardFraction(cfg, p, Recompute::Full), 1.0);
    double sel =
        recomputeForwardFraction(cfg, p, Recompute::Selective);
    // Softmax/dropout region is cheap: a few percent of the layer.
    EXPECT_GT(sel, 0.0);
    EXPECT_LT(sel, 0.10);
}

// Property sweep: activation memory is monotone in batch and seq.
class ActivationMonotoneTest
    : public ::testing::TestWithParam<std::tuple<long long, long long>>
{};

TEST_P(ActivationMonotoneTest, GrowsWithBatchAndSeq)
{
    auto [b, s] = GetParam();
    TransformerConfig cfg = models::gpt22b();
    ActivationParams small;
    small.microbatch = b;
    small.seq = s;
    ActivationParams bigger = small;
    bigger.microbatch = b * 2;
    ActivationParams longer = small;
    longer.seq = s * 2;
    double base = layerActivations(cfg, small).total();
    EXPECT_GT(layerActivations(cfg, bigger).total(), base);
    EXPECT_GT(layerActivations(cfg, longer).total(), base);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ActivationMonotoneTest,
    ::testing::Combine(::testing::Values(1LL, 4LL),
                       ::testing::Values(512LL, 2048LL)));

} // namespace
} // namespace optimus
