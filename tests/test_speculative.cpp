/**
 * @file
 * Tests for the speculative-decoding extension.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "hw/presets.h"
#include "inference/engine.h"
#include "inference/speculative.h"
#include "util/error.h"
#include "workload/presets.h"

namespace optimus {
namespace {

SpeculativeOptions
defaults()
{
    SpeculativeOptions opts;
    opts.gamma = 4;
    opts.acceptanceRate = 0.8;
    opts.context = 400;
    return opts;
}

TEST(Speculative, SpeedsUpMemoryBoundDecoding)
{
    System sys = presets::dgxA100(1);
    SpeculativeReport rep = evaluateSpeculative(
        models::llama2_70b(), models::llama2_7b(), sys, defaults());
    // Drafting with a 10x smaller model at 80% acceptance should
    // roughly double throughput.
    EXPECT_GT(rep.speedup, 1.3);
    EXPECT_LT(rep.speedup, 3.5);
    EXPECT_GT(rep.tokensPerSecond, rep.baselineTokensPerSecond);
}

TEST(Speculative, ExpectedTokensFollowsGeometricSum)
{
    System sys = presets::dgxA100(1);
    SpeculativeOptions opts = defaults();
    SpeculativeReport rep = evaluateSpeculative(
        models::llama2_13b(), models::llama2_7b(), sys, opts);
    double a = opts.acceptanceRate;
    double expected = (1.0 - std::pow(a, 5.0)) / (1.0 - a);
    EXPECT_NEAR(rep.expectedTokensPerCycle, expected, 1e-12);
    EXPECT_NEAR(rep.cycleTime,
                4.0 * rep.draftStepTime + rep.verifyTime, 1e-12);
}

TEST(Speculative, VerifyCostsLittleMoreThanOneStep)
{
    // The verification pass streams the weights once for gamma+1
    // tokens: it must cost well under gamma+1 decode steps.
    System sys = presets::dgxA100(1);
    SpeculativeReport rep = evaluateSpeculative(
        models::llama2_70b(), models::llama2_7b(), sys, defaults());
    double baseline_step = 1.0 / rep.baselineTokensPerSecond;
    EXPECT_LT(rep.verifyTime, baseline_step * 1.5);
}

TEST(Speculative, LowAcceptanceKillsTheGain)
{
    System sys = presets::dgxA100(1);
    SpeculativeOptions good = defaults();
    SpeculativeOptions bad = defaults();
    bad.acceptanceRate = 0.05;
    double s_good = evaluateSpeculative(models::llama2_70b(),
                                        models::llama2_7b(), sys,
                                        good)
                        .speedup;
    double s_bad = evaluateSpeculative(models::llama2_70b(),
                                       models::llama2_7b(), sys, bad)
                       .speedup;
    EXPECT_GT(s_good, s_bad);
    EXPECT_LT(s_bad, 1.0);  // not worth it
}

TEST(Speculative, RejectsBadSetups)
{
    System sys = presets::dgxA100(1);
    SpeculativeOptions opts = defaults();
    opts.acceptanceRate = 1.0;
    EXPECT_THROW(evaluateSpeculative(models::llama2_70b(),
                                     models::llama2_7b(), sys, opts),
                 ConfigError);
    opts = defaults();
    // Draft must be smaller than the target.
    EXPECT_THROW(evaluateSpeculative(models::llama2_7b(),
                                     models::llama2_70b(), sys, opts),
                 ConfigError);
}

TEST(Speculative, VerifyIsTheInferenceDecodeStep)
{
    // One decode path: verification is one decode token over gamma+1
    // queries, with the KV cache at the compute precision.
    System sys = presets::dgxA100(1);
    SpeculativeOptions opts = defaults();
    opts.tensorParallel = 4;
    opts.precision = Precision::BF16;
    SpeculativeReport rep = evaluateSpeculative(
        models::llama2_70b(), models::llama2_7b(), sys, opts);

    InferenceOptions io;
    io.precision = opts.precision;
    io.kvPrecision = opts.precision;
    io.tensorParallel = opts.tensorParallel;
    io.batch = opts.gamma + 1;
    io.promptLength = opts.context - 1;
    io.generateLength = 1;
    EXPECT_EQ(rep.verifyTime,
              evaluateInference(models::llama2_70b(), sys, io)
                  .decode.time);
}

TEST(Speculative, TensorParallelAcrossNodes)
{
    // TP 16 on two 8-GPU nodes prices the verify all-reduce on the
    // inter-node link instead of throwing a scope error.
    System sys = presets::dgxA100(2);
    SpeculativeOptions opts = defaults();
    opts.tensorParallel = 16;
    SpeculativeReport rep;
    ASSERT_NO_THROW(rep = evaluateSpeculative(models::llama2_70b(),
                                              models::llama2_7b(), sys,
                                              opts));
    for (double v : {rep.draftStepTime, rep.verifyTime, rep.cycleTime,
                     rep.tokensPerSecond, rep.baselineTokensPerSecond,
                     rep.speedup}) {
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_GT(v, 0.0);
    }
}

// Property: speedup is unimodal-ish in gamma; tiny gamma underuses
// the parallel verify, huge gamma wastes drafts.
class GammaSweepTest : public ::testing::TestWithParam<long long>
{};

TEST_P(GammaSweepTest, ReportsConsistentThroughput)
{
    System sys = presets::dgxA100(1);
    SpeculativeOptions opts = defaults();
    opts.gamma = GetParam();
    SpeculativeReport rep = evaluateSpeculative(
        models::llama2_70b(), models::llama2_7b(), sys, opts);
    EXPECT_NEAR(rep.tokensPerSecond,
                rep.expectedTokensPerCycle / rep.cycleTime, 1e-9);
    EXPECT_GT(rep.speedup, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GammaSweepTest,
                         ::testing::Values(1LL, 2LL, 4LL, 8LL, 16LL));

} // namespace
} // namespace optimus
