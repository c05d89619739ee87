/**
 * @file
 * Tests for the extension features beyond the paper's core model:
 * FlashAttention (IO-aware fused attention) and ZeRO-style optimizer
 * sharding.
 */

#include <gtest/gtest.h>

#include "hw/presets.h"
#include "inference/engine.h"
#include "lint/lint.h"
#include "training/trainer.h"
#include "util/error.h"
#include "util/units.h"
#include "workload/graph.h"
#include "workload/presets.h"

namespace optimus {
namespace {

// ---- FlashAttention ---------------------------------------------------

TEST(FlashAttention, ReplacesUnfusedChain)
{
    TransformerConfig cfg = models::gpt175b();
    LayerGraphParams p;
    p.flashAttention = true;
    bool found_fused = false;
    for (const Op &op : layerForwardOps(cfg, p)) {
        EXPECT_NE(op.name, "qk^T");
        EXPECT_NE(op.name, "attn-softmax");
        EXPECT_NE(op.name, "attn-v");
        if (op.kind == OpKind::FusedAttention)
            found_fused = true;
    }
    EXPECT_TRUE(found_fused);
}

TEST(FlashAttention, SameFlopsNoQuadraticDram)
{
    TransformerConfig cfg = models::gpt175b();
    LayerGraphParams p;
    p.batch = 1;
    p.seq = 8192;
    p.tensorParallel = 8;

    auto attention_stats = [&](bool flash) {
        p.flashAttention = flash;
        double flops = 0.0, dram = 0.0;
        Device dev = presets::a100_80gb();
        for (const Op &op : layerForwardOps(cfg, p)) {
            bool attn = op.kind == OpKind::FusedAttention ||
                        op.name == "qk^T" || op.name == "attn-v" ||
                        op.name == "attn-softmax" ||
                        op.name == "attn-dropout";
            if (!attn)
                continue;
            flops += opFlops(op);
            dram += evaluateOp(dev, op).bytesPerLevel[0];
        }
        return std::pair{flops, dram};
    };

    auto [f_flops, f_dram] = attention_stats(true);
    auto [u_flops, u_dram] = attention_stats(false);
    // Matmul FLOPs identical (softmax/dropout vector work aside).
    EXPECT_NEAR(f_flops, u_flops, u_flops * 0.02);
    // DRAM traffic collapses: the s x s matrices stay on chip.
    EXPECT_LT(f_dram, u_dram / 20.0);
}

TEST(FlashAttention, SpeedsUpLongSequences)
{
    TransformerConfig cfg = models::gpt7b();
    System sys = presets::dgxA100(4);
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 4;
    par.sequenceParallel = true;

    TrainingOptions base;
    base.seqLength = 16384;
    base.recompute = Recompute::None;
    TrainingOptions flash = base;
    flash.flashAttention = true;

    TrainingReport slow = evaluateTraining(cfg, sys, par, 32, base);
    TrainingReport fast = evaluateTraining(cfg, sys, par, 32, flash);
    EXPECT_LT(fast.timePerBatch, slow.timePerBatch);
    // Activation memory shrinks dramatically (no 5 a s^2 b term).
    EXPECT_LT(fast.memory.activations,
              slow.memory.activations * 0.6);
}

TEST(FlashAttention, ActivationScoresBecomeStatistics)
{
    TransformerConfig cfg = models::gpt175b();
    ActivationParams p;
    p.seq = 4096;
    ActivationBreakdown unfused = layerActivations(cfg, p);
    p.flashAttention = true;
    ActivationBreakdown flash = layerActivations(cfg, p);
    EXPECT_LT(flash.scores, unfused.scores / 100.0);
    EXPECT_DOUBLE_EQ(flash.mlp, unfused.mlp);
}

TEST(FlashAttention, BackwardCarriesRecomputeFactor)
{
    TransformerConfig cfg = models::gpt7b();
    LayerGraphParams p;
    p.flashAttention = true;
    double fwd = 0.0, bwd = 0.0;
    for (const Op &op : layerForwardOps(cfg, p))
        if (op.kind == OpKind::FusedAttention)
            fwd = op.fusedFlops;
    for (const Op &op : layerBackwardOps(cfg, p))
        if (op.kind == OpKind::FusedAttention)
            bwd = op.fusedFlops;
    EXPECT_DOUBLE_EQ(bwd, fwd * 2.5);
}

TEST(FlashAttention, PrefillPhaseSupportsIt)
{
    System sys = presets::dgxA100(1);
    InferenceOptions opts;
    opts.promptLength = 2048;
    opts.generateLength = 8;
    InferenceReport unfused =
        evaluateInference(models::llama2_13b(), sys, opts);
    opts.flashAttention = true;
    InferenceReport flash =
        evaluateInference(models::llama2_13b(), sys, opts);
    EXPECT_LT(flash.prefill.time, unfused.prefill.time);
}

// ---- ZeRO optimizer sharding -------------------------------------------

TEST(Zero, Stage1ShardsOptimizerStates)
{
    TransformerConfig cfg = models::gpt175b();
    ParallelConfig par;
    par.dataParallel = 8;
    par.tensorParallel = 8;
    par.pipelineParallel = 2;

    TrainingOptions plain;
    plain.recompute = Recompute::Selective;
    TrainingOptions z1 = plain;
    z1.memory.zeroStage = 1;
    TrainingMemory a = trainingMemoryPerDevice(cfg, par, 64, plain);
    TrainingMemory b = trainingMemoryPerDevice(cfg, par, 64, z1);
    EXPECT_NEAR(b.optimizer, a.optimizer / 8.0, 1.0);
    EXPECT_DOUBLE_EQ(b.weights, a.weights);
    EXPECT_DOUBLE_EQ(b.gradients, a.gradients);
}

TEST(Zero, StagesShardProgressively)
{
    TransformerConfig cfg = models::gpt175b();
    ParallelConfig par;
    par.dataParallel = 8;
    par.tensorParallel = 8;
    par.pipelineParallel = 2;
    double prev = 1e30;
    for (int stage : {0, 1, 2, 3}) {
        TrainingOptions opts;
        opts.recompute = Recompute::Selective;
        opts.memory.zeroStage = stage;
        double total =
            trainingMemoryPerDevice(cfg, par, 64, opts).total();
        EXPECT_LT(total, prev);
        prev = total;
    }
    // The stage range is a lint rule, enforced at the gate.
    TrainingOptions bad;
    bad.memory.zeroStage = 4;
    const System sys = presets::dgxA100(16);
    EXPECT_TRUE(lint::lintTraining(cfg, sys, par, 64, bad)
                    .has(lint::kRuleZeroStage));
    EXPECT_THROW(evaluateTraining(cfg, sys, par, 64, bad), LintError);
}

TEST(Zero, Stage1SpeedsUpOptimizerStep)
{
    TransformerConfig cfg = models::gpt175b();
    System sys = presets::dgxA100(16);
    ParallelConfig par;
    par.dataParallel = 2;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;

    TrainingOptions plain;
    TrainingOptions z1;
    z1.memory.zeroStage = 1;
    double t0 = evaluateTraining(cfg, sys, par, 64, plain)
                    .time.optimizer;
    double t1 = evaluateTraining(cfg, sys, par, 64, z1)
                    .time.optimizer;
    EXPECT_NEAR(t1, t0 / 2.0, t0 * 1e-9);
}

TEST(Zero, Stage3AddsWeightGatherComm)
{
    TransformerConfig cfg = models::gpt175b();
    System sys = presets::dgxA100(16);
    ParallelConfig par;
    par.dataParallel = 2;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;

    TrainingOptions z1;
    z1.memory.zeroStage = 1;
    TrainingOptions z3;
    z3.memory.zeroStage = 3;
    double c1 = evaluateTraining(cfg, sys, par, 64, z1).time.dpComm;
    double c3 = evaluateTraining(cfg, sys, par, 64, z3).time.dpComm;
    EXPECT_GT(c3, c1 * 1.5);
}

TEST(Zero, EnablesOtherwiseOverflowingConfig)
{
    // GPT-175B with TP8 PP2 stores ~21 GiB of optimizer states per
    // GPU; ZeRO-2 over DP8 makes an otherwise overflowing no-SP
    // config fit.
    TransformerConfig cfg = models::gpt175b();
    ParallelConfig par;
    par.dataParallel = 8;
    par.tensorParallel = 8;
    par.pipelineParallel = 4;

    TrainingOptions plain;
    TrainingOptions z2;
    z2.memory.zeroStage = 2;
    double before = trainingMemoryPerDevice(cfg, par, 64, plain).total();
    double after = trainingMemoryPerDevice(cfg, par, 64, z2).total();
    EXPECT_GT(before, 80 * GiB);
    EXPECT_LT(after, 80 * GiB);
}

} // namespace
} // namespace optimus
