/**
 * @file
 * Unit tests for the end-to-end training model: breakdown accounting,
 * physical monotonicities, recomputation and parallelism behaviour.
 */

#include <gtest/gtest.h>

#include "hw/presets.h"
#include "training/trainer.h"
#include "util/error.h"
#include "workload/presets.h"

namespace optimus {
namespace {

TrainingReport
run175b(const System &sys, TrainingOptions opts = {},
        PipelineSchedule sched = PipelineSchedule::OneFOneB,
        long long batch = 64)
{
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    par.sequenceParallel = true;
    par.schedule = sched;
    return evaluateTraining(models::gpt175b(), sys, par, batch, opts);
}

TEST(Training, BreakdownSumsToTotal)
{
    TrainingReport rep = run175b(presets::dgxA100(8));
    const TrainingBreakdown &t = rep.time;
    EXPECT_NEAR(rep.timePerBatch,
                t.compute() + t.communication() + t.other(), 1e-9);
    EXPECT_GT(t.forward, 0.0);
    EXPECT_GT(t.backward, t.forward);  // backward is ~2x forward
    EXPECT_GT(t.tpComm, 0.0);
    EXPECT_GT(t.bubble, 0.0);
    EXPECT_GT(t.optimizer, 0.0);
}

TEST(Training, MfuIsPlausible)
{
    TrainingOptions opts;
    opts.recompute = Recompute::None;
    TrainingReport rep = run175b(presets::dgxA100(8), opts);
    // Megatron-class runs report 40-60% MFU on A100.
    EXPECT_GT(rep.mfu, 0.30);
    EXPECT_LT(rep.mfu, 0.70);
}

TEST(Training, RecomputationCostsForwardTime)
{
    TrainingOptions none;
    none.recompute = Recompute::None;
    TrainingOptions sel;
    sel.recompute = Recompute::Selective;
    TrainingOptions full;
    full.recompute = Recompute::Full;

    System sys = presets::dgxA100(8);
    double t_none = run175b(sys, none).timePerBatch;
    double t_sel = run175b(sys, sel).timePerBatch;
    double t_full = run175b(sys, full).timePerBatch;
    EXPECT_LT(t_none, t_sel);
    EXPECT_LT(t_sel, t_full);
    // Full recompute re-runs the forward pass: recompute time equals
    // forward time.
    TrainingReport rep = run175b(sys, full);
    EXPECT_NEAR(rep.time.recompute, rep.time.forward, 1e-9);
}

TEST(Training, FasterDeviceTrainsFaster)
{
    double a100 = run175b(presets::dgxA100(8)).timePerBatch;
    double h100 = run175b(presets::dgxH100(8)).timePerBatch;
    EXPECT_LT(h100, a100);
}

TEST(Training, Fp8BeatsFp16OnH100)
{
    TrainingOptions fp16;
    TrainingOptions fp8;
    fp8.precision = Precision::FP8;
    double t16 = run175b(presets::dgxH100(8), fp16).timePerBatch;
    double t8 = run175b(presets::dgxH100(8), fp8).timePerBatch;
    EXPECT_LT(t8, t16);
    EXPECT_GT(t8, t16 / 2.2);  // bounded by the 2x compute ratio
}

TEST(Training, NvsBeatsInfiniBandAtScale)
{
    ParallelConfig par;
    par.dataParallel = 16;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    par.sequenceParallel = true;
    double ib = evaluateTraining(models::gpt175b(),
                                 presets::dgxH100(128), par, 1024, {})
                    .timePerBatch;
    double nvs =
        evaluateTraining(models::gpt175b(), presets::dgxH100Nvs(128),
                         par, 1024, {})
            .timePerBatch;
    EXPECT_LT(nvs, ib);
}

TEST(Training, MoreMicrobatchesShrinkBubbleShare)
{
    System sys = presets::dgxA100(8);
    TrainingReport small = run175b(sys, {},
                                   PipelineSchedule::OneFOneB, 16);
    TrainingReport large = run175b(sys, {},
                                   PipelineSchedule::OneFOneB, 256);
    EXPECT_GT(small.bubbleFraction, large.bubbleFraction);
    EXPECT_DOUBLE_EQ(small.bubbleFraction, 7.0 / 16.0);
    EXPECT_DOUBLE_EQ(large.bubbleFraction, 7.0 / 256.0);
}

TEST(Training, InterleavingReducesTime)
{
    System sys = presets::dgxA100(8);
    ParallelConfig f1b;
    f1b.tensorParallel = 8;
    f1b.pipelineParallel = 8;
    f1b.sequenceParallel = true;

    ParallelConfig il = f1b;
    il.schedule = PipelineSchedule::Interleaved1F1B;
    il.interleavedStages = 4;

    double a = evaluateTraining(models::gpt175b(), sys, f1b, 16, {})
                   .timePerBatch;
    double b = evaluateTraining(models::gpt175b(), sys, il, 16, {})
                   .timePerBatch;
    EXPECT_LT(b, a);
}

TEST(Training, DataParallelismScalesThroughput)
{
    // Same per-pipeline batch, 4x devices via DP -> ~4x throughput.
    ParallelConfig one;
    one.tensorParallel = 8;
    one.pipelineParallel = 8;
    TrainingReport base = evaluateTraining(
        models::gpt175b(), presets::dgxA100(8), one, 64, {});

    ParallelConfig four = one;
    four.dataParallel = 4;
    TrainingReport scaled = evaluateTraining(
        models::gpt175b(), presets::dgxA100(32), four, 256, {});

    double thr1 = 64.0 / base.timePerBatch;
    double thr4 = 256.0 / scaled.timePerBatch;
    EXPECT_GT(thr4, 3.2 * thr1);
    EXPECT_LT(thr4, 4.05 * thr1);
    EXPECT_GT(scaled.time.dpComm, 0.0);
}

TEST(Training, TpOverlapHidesCollectives)
{
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    par.sequenceParallel = true;
    System sys = presets::dgxA100(8);
    TrainingOptions overlap;
    overlap.tpOverlapFraction = 0.5;
    double exposed =
        evaluateTraining(models::gpt175b(), sys, par, 64, {})
            .time.tpComm;
    double hidden =
        evaluateTraining(models::gpt175b(), sys, par, 64, overlap)
            .time.tpComm;
    EXPECT_NEAR(hidden, exposed * 0.5, exposed * 1e-9);
}

TEST(Training, DpOverlapHidesGradientComm)
{
    ParallelConfig par;
    par.dataParallel = 4;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    TrainingOptions overlap;
    overlap.dpOverlapFraction = 0.9;
    System sys = presets::dgxA100(32);
    double exposed =
        evaluateTraining(models::gpt175b(), sys, par, 256, {})
            .time.dpComm;
    double hidden =
        evaluateTraining(models::gpt175b(), sys, par, 256, overlap)
            .time.dpComm;
    EXPECT_NEAR(hidden, exposed * 0.1, exposed * 1e-6);
}

TEST(Training, SequenceParallelismIsNotSlower)
{
    // SP reshards norms/dropouts and keeps communication volume the
    // same; it should not slow training down.
    ParallelConfig no_sp;
    no_sp.tensorParallel = 8;
    no_sp.pipelineParallel = 8;
    ParallelConfig sp = no_sp;
    sp.sequenceParallel = true;
    System sys = presets::dgxA100(8);
    double a =
        evaluateTraining(models::gpt175b(), sys, no_sp, 64, {})
            .timePerBatch;
    double b = evaluateTraining(models::gpt175b(), sys, sp, 64, {})
                   .timePerBatch;
    EXPECT_LE(b, a * 1.001);
}

TEST(Training, RejectsInvalidSetups)
{
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    System sys = presets::dgxA100(8);
    TrainingOptions opts;
    opts.seqLength = 0;
    EXPECT_THROW(
        evaluateTraining(models::gpt175b(), sys, par, 64, opts),
        ConfigError);
    par.microbatchSize = 2;
    EXPECT_THROW(evaluateTraining(models::gpt175b(), sys, par, 63, {}),
                 ConfigError);
}

TEST(Training, ReportExposesPerLayerEstimates)
{
    TrainingReport rep = run175b(presets::dgxA100(8));
    EXPECT_GT(rep.layerForward.flops, 0.0);
    EXPECT_GT(rep.layerBackward.flops, rep.layerForward.flops * 1.9);
    EXPECT_EQ(rep.layerForward.bytesPerLevel.size(), 3u);
    EXPECT_EQ(rep.microbatches, 64);
}

// Property sweep: training time scales roughly linearly with batch
// (fixed mapping), sublinearly near small batch due to bubbles.
class BatchScalingTest : public ::testing::TestWithParam<long long>
{};

TEST_P(BatchScalingTest, TimeGrowsWithBatch)
{
    long long batch = GetParam();
    System sys = presets::dgxA100(8);
    double t1 = run175b(sys, {}, PipelineSchedule::OneFOneB, batch)
                    .timePerBatch;
    double t2 = run175b(sys, {}, PipelineSchedule::OneFOneB,
                        batch * 2)
                    .timePerBatch;
    EXPECT_GT(t2, t1 * 1.5);
    EXPECT_LT(t2, t1 * 2.1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BatchScalingTest,
                         ::testing::Values(16LL, 32LL, 64LL, 128LL));

} // namespace
} // namespace optimus
