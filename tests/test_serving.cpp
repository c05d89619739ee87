/**
 * @file
 * Tests for the serving-throughput extension and the TPU presets.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "hw/presets.h"
#include "inference/serving.h"
#include "planner/planner.h"
#include "util/error.h"
#include "util/units.h"
#include "workload/presets.h"

namespace optimus {
namespace {

ServingOptions
chatOptions(int tp)
{
    ServingOptions opts;
    opts.tensorParallel = tp;
    opts.promptLength = 512;
    opts.generateLength = 256;
    return opts;
}

TEST(Serving, ThroughputGrowsWithBatch)
{
    System sys = presets::dgxA100(1);
    TransformerConfig cfg = models::llama2_13b();
    ServingOptions opts = chatOptions(1);
    double prev = 0.0;
    for (long long b : {1LL, 4LL, 16LL, 64LL}) {
        ServingPoint pt = evaluateServingPoint(cfg, sys, opts, b);
        EXPECT_GT(pt.tokensPerSecond, prev) << "batch " << b;
        prev = pt.tokensPerSecond;
    }
}

TEST(Serving, BatchingTradesLatencyForThroughput)
{
    System sys = presets::dgxA100(1);
    TransformerConfig cfg = models::llama2_13b();
    ServingOptions opts = chatOptions(1);
    ServingPoint b1 = evaluateServingPoint(cfg, sys, opts, 1);
    ServingPoint b32 = evaluateServingPoint(cfg, sys, opts, 32);
    // Paper Sec. 6.1: throughput up, latency growth "rather modest".
    EXPECT_GT(b32.tokensPerSecond, 8.0 * b1.tokensPerSecond);
    EXPECT_LT(b32.interTokenLatency, 4.0 * b1.interTokenLatency);
}

TEST(Serving, StepTimeConsistency)
{
    System sys = presets::dgxA100(1);
    ServingOptions opts = chatOptions(1);
    ServingPoint pt = evaluateServingPoint(models::llama2_7b(), sys,
                                           opts, 8);
    EXPECT_GT(pt.interTokenLatency, pt.decodeStepTime);
    EXPECT_NEAR(pt.tokensPerSecond,
                8.0 / pt.interTokenLatency, 1e-6);
    EXPECT_NEAR(pt.requestsPerSecond * opts.generateLength,
                pt.tokensPerSecond, 1e-6);
    EXPECT_GT(pt.timeToFirstToken, 0.0);
}

TEST(Serving, KvCacheLimitsBatch)
{
    System sys = presets::dgxA100(1);
    TransformerConfig cfg = models::llama2_13b();
    ServingOptions opts = chatOptions(1);
    opts.promptLength = 3000;
    opts.generateLength = 1000;
    // 13B weights 24 GiB leave ~56 GiB: each 4000-token sequence
    // needs ~3 GiB of KV, so batch 32 must overflow.
    ServingPoint small = evaluateServingPoint(cfg, sys, opts, 4);
    ServingPoint large = evaluateServingPoint(cfg, sys, opts, 32);
    EXPECT_TRUE(small.fits);
    EXPECT_FALSE(large.fits);

    ServingPoint best = maxThroughputPoint(cfg, sys, opts);
    EXPECT_TRUE(best.fits);
    EXPECT_LT(best.batch, 32);
}

TEST(Serving, MaxThroughputRejectsOversizedModel)
{
    System sys = presets::dgxA100(1);
    ServingOptions opts = chatOptions(1);  // 70B does not fit 1 GPU
    EXPECT_THROW(
        maxThroughputPoint(models::llama2_70b(), sys, opts),
        ConfigError);
    EXPECT_NO_THROW(maxThroughputPoint(models::llama2_70b(), sys,
                                       chatOptions(2)));
}

TEST(Serving, CostPerTokenDecreasesWithBatch)
{
    System sys = presets::dgxH100(1);
    TransformerConfig cfg = models::llama2_13b();
    ServingOptions opts = chatOptions(1);
    ServingPoint b1 = evaluateServingPoint(cfg, sys, opts, 1);
    ServingPoint b32 = evaluateServingPoint(cfg, sys, opts, 32);
    double c1 = costPerMillionTokens(opts, b1);
    double c32 = costPerMillionTokens(opts, b32);
    EXPECT_LT(c32, c1 / 8.0);
    // Sanity: single-digit dollars per Mtok at high batch,
    // double/triple digits unbatched.
    EXPECT_GT(c1, 1.0);
    EXPECT_LT(c32, 5.0);
}

TEST(Serving, RejectsBadInputs)
{
    System sys = presets::dgxA100(1);
    ServingOptions opts = chatOptions(1);
    EXPECT_THROW(evaluateServingPoint(models::llama2_7b(), sys, opts,
                                      0),
                 ConfigError);
    ServingPoint empty;
    EXPECT_THROW(costPerMillionTokens(opts, empty), ConfigError);
}

TEST(Serving, DecodeStepIsTheInferenceDecodeStep)
{
    // One decode path: a serving step is exactly the single decode
    // token evaluateInference prices at the mean context length.
    System sys = presets::dgxA100(1);
    TransformerConfig cfg = models::llama2_13b();
    ServingOptions opts = chatOptions(2);
    opts.kvPrecision = Precision::FP8;
    const long long batch = 16;
    ServingPoint pt = evaluateServingPoint(cfg, sys, opts, batch);

    InferenceOptions io;
    io.precision = opts.precision;
    io.kvPrecision = opts.kvPrecision;
    io.tensorParallel = opts.tensorParallel;
    io.batch = batch;
    io.promptLength = opts.promptLength + opts.generateLength / 2 - 1;
    io.generateLength = 1;
    EXPECT_EQ(pt.decodeStepTime,
              evaluateInference(cfg, sys, io).decode.time);
}

TEST(Serving, TensorParallelAcrossNodes)
{
    // TP 16 on two 8-GPU nodes: the decode all-reduce crosses the
    // inter-node link instead of throwing an intra-node scope error.
    System sys = presets::dgxA100(2);
    TransformerConfig cfg = models::llama2_70b();
    ServingOptions opts = chatOptions(16);
    ServingPoint pt;
    ASSERT_NO_THROW(pt = evaluateServingPoint(cfg, sys, opts, 8));
    for (double v : {pt.decodeStepTime, pt.tokensPerSecond,
                     pt.requestsPerSecond, pt.timeToFirstToken,
                     pt.interTokenLatency}) {
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_GT(v, 0.0);
    }

    ServingPlannerOptions po;
    po.serving = opts;
    po.tensorParallelChoices = {8, 16};
    std::vector<ServingPlan> plans;
    ASSERT_NO_THROW(plans = planServing(cfg, sys, po));
    ASSERT_EQ(plans.size(), 2u);
    for (const ServingPlan &p : plans) {
        EXPECT_TRUE(std::isfinite(p.tokensPerSecondPerDevice));
        EXPECT_GT(p.tokensPerSecondPerDevice, 0.0);
        EXPECT_GT(p.point.decodeStepTime, 0.0);
    }
}

// ---- TPU presets -------------------------------------------------------

TEST(Tpu, PresetNumbers)
{
    Device v4 = presets::tpuV4();
    EXPECT_DOUBLE_EQ(v4.matrixFlops(Precision::BF16), 275 * TFLOPS);
    EXPECT_DOUBLE_EQ(v4.dram().bandwidth, 1.2 * TBps);
    EXPECT_EQ(v4.level("CMEM").name, "CMEM");

    Device v5p = presets::tpuV5p();
    EXPECT_DOUBLE_EQ(v5p.matrixFlops(Precision::BF16), 459 * TFLOPS);
    EXPECT_DOUBLE_EQ(v5p.dram().capacity, 95 * GiB);
}

TEST(Tpu, PodTopology)
{
    System pod = presets::tpuV4Pod(2);
    EXPECT_EQ(pod.totalDevices(), 128);
    EXPECT_EQ(pod.devicesPerNode, 64);
    EXPECT_EQ(pod.linkForGroup(64).name, "ICI-v4");
    EXPECT_EQ(pod.linkForGroup(65).name, "DCN");
}

TEST(Tpu, TrainsGptInBf16)
{
    // The framework extends beyond GPUs (paper Sec. 4.1 note).
    ParallelConfig par;
    par.dataParallel = 2;
    par.tensorParallel = 8;
    par.pipelineParallel = 4;
    TrainingOptions opts;
    opts.precision = Precision::BF16;
    TrainingReport rep = evaluateTraining(
        models::gpt175b(), presets::tpuV4Pod(1), par, 64, opts);
    EXPECT_GT(rep.timePerBatch, 0.0);
    EXPECT_GT(rep.mfu, 0.2);
    EXPECT_LT(rep.mfu, 0.8);
}

TEST(Tpu, V5pBeatsV4)
{
    InferenceOptions opts;
    opts.precision = Precision::BF16;
    double v4 = evaluateInference(models::llama2_13b(),
                                  presets::tpuV4Pod(1), opts)
                    .totalLatency;
    double v5 = evaluateInference(models::llama2_13b(),
                                  presets::tpuV5pPod(1), opts)
                    .totalLatency;
    EXPECT_LT(v5, v4);
}

} // namespace
} // namespace optimus
