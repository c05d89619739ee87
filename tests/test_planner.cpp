/**
 * @file
 * Tests for the parallelization planner.
 */

#include <limits>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "hw/presets.h"
#include "memory/footprint.h"
#include "planner/planner.h"
#include "trace/trace.h"
#include "util/units.h"
#include "workload/presets.h"

namespace optimus {
namespace {

TEST(TrainingPlanner, FindsFittingPlansAndRanksThem)
{
    TrainingPlannerOptions opts;
    opts.keep = 50;
    std::vector<TrainingPlan> plans = planTraining(
        models::gpt175b(), presets::dgxA100(16), 128, opts);
    ASSERT_FALSE(plans.empty());
    for (size_t i = 1; i < plans.size(); ++i) {
        EXPECT_LE(plans[i - 1].report.timePerBatch,
                  plans[i].report.timePerBatch);
    }
    for (const TrainingPlan &p : plans) {
        EXPECT_EQ(p.parallel.totalDevices(), 128);
        EXPECT_LE(p.report.memory.total(), 80 * GiB);
    }
}

TEST(TrainingPlanner, BestPlanBeatsANaiveMapping)
{
    System sys = presets::dgxA100(16);
    const std::vector<TrainingPlan> plans =
        planTraining(models::gpt175b(), sys, 128);
    ASSERT_FALSE(plans.empty());
    const TrainingPlan &best = plans.front();

    // A valid but clumsy hand mapping: PP-heavy, full recompute.
    ParallelConfig naive;
    naive.dataParallel = 2;
    naive.tensorParallel = 2;
    naive.pipelineParallel = 32;
    TrainingOptions nopts;
    nopts.recompute = Recompute::Full;
    double naive_t =
        evaluateTraining(models::gpt175b(), sys, naive, 128, nopts)
            .timePerBatch;

    EXPECT_LT(best.report.timePerBatch, naive_t);
    EXPECT_GT(best.report.mfu, 0.40);
}

TEST(TrainingPlanner, RespectsMemoryOverPerformance)
{
    // Without recomputation GPT-175B TP8/PP2-style plans overflow;
    // every returned plan must fit.
    TrainingPlannerOptions opts;
    opts.recomputeChoices = {Recompute::None};
    std::vector<TrainingPlan> plans = planTraining(
        models::gpt175b(), presets::dgxA100(8), 64, opts);
    for (const TrainingPlan &p : plans) {
        TrainingMemory mem =
            trainingMemoryPerDevice(models::gpt175b(), p.parallel, 64,
                                    p.options);
        EXPECT_LE(mem.total(), 80 * GiB);
    }
}

TEST(TrainingPlanner, EmptyWhenNothingFits)
{
    // One A100 node cannot hold GPT-530B under any mapping.
    EXPECT_TRUE(
        planTraining(models::gpt530b(), presets::dgxA100(1), 8).empty());
}

TEST(TrainingPlanner, ZeroStageWidensTheSpace)
{
    // Allowing ZeRO adds fitting plans (every plain plan still fits,
    // and DP-sharded variants join) for a memory-tight MoE setup.
    TrainingPlannerOptions plain;
    plain.recomputeChoices = {Recompute::Selective};
    plain.zeroStages = {0};
    plain.keep = 1000;
    TrainingPlannerOptions zero = plain;
    zero.zeroStages = {0, 2};

    System sys = presets::dgxA100(4);
    size_t n_plain =
        planTraining(models::mixtral8x7b(), sys, 32, plain).size();
    size_t n_zero =
        planTraining(models::mixtral8x7b(), sys, 32, zero).size();
    EXPECT_GT(n_plain, 0u);
    EXPECT_GT(n_zero, n_plain);
}

/** A planner sweep with every evaluated candidate kept. */
struct Sweep
{
    TransformerConfig model;
    System sys;
    long long batch = 0;
    TrainingPlannerOptions opts;
};

std::vector<Sweep>
unboundedSweeps()
{
    Sweep gpt{models::gpt175b(), presets::dgxA100(16), 128, {}};
    gpt.opts.microbatchSizes = {1, 2, 4, 8};
    gpt.opts.zeroStages = {0, 1, 2, 3};
    Sweep moe{models::mixtral8x7b(), presets::dgxA100(4), 32, {}};
    moe.opts.zeroStages = {0, 2};
    Sweep fp8{models::gpt7b(), presets::dgxH100(2), 64, {}};
    fp8.opts.training.precision = Precision::FP8;
    fp8.opts.zeroStages = {0, 1, 2};
    // Overlapped and Ring-scheduled collectives.
    Sweep overlap{models::gpt7b(), presets::dgxA100(2), 64, {}};
    overlap.opts.training.tpOverlapFraction = 0.5;
    overlap.opts.training.dpOverlapFraction = 0.3;
    overlap.opts.training.collectiveAlgorithm = CollectiveAlgorithm::Ring;
    overlap.opts.zeroStages = {0, 1, 2};
    std::vector<Sweep> out = {gpt, moe, fp8, overlap};
    for (Sweep &s : out)
        s.opts.keep = std::numeric_limits<size_t>::max();
    return out;
}

void
expectSameEstimate(const KernelEstimate &a, const KernelEstimate &b)
{
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.flops, b.flops);
    EXPECT_EQ(a.bytesPerLevel, b.bytesPerLevel);
    EXPECT_EQ(a.computeTime, b.computeTime);
    EXPECT_EQ(a.memTimePerLevel, b.memTimePerLevel);
    EXPECT_EQ(a.overhead, b.overhead);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.boundLevel, b.boundLevel);
}

TEST(TrainingPlanner, EveryPlanEqualsDirectEvaluation)
{
    for (const Sweep &s : unboundedSweeps()) {
        std::vector<TrainingPlan> plans =
            planTraining(s.model, s.sys, s.batch, s.opts);
        ASSERT_FALSE(plans.empty()) << s.model.name;
        for (const TrainingPlan &p : plans) {
            SCOPED_TRACE(s.model.name + " " + p.parallel.label());
            // The run's options with the plan's recompute and ZeRO
            // stage, as a caller would set them: everything the
            // planner derives must come out the same.
            TrainingOptions direct = s.opts.training;
            direct.recompute = p.options.recompute;
            direct.memory.zeroStage = p.options.memory.zeroStage;
            const TrainingReport d = evaluateTraining(
                s.model, s.sys, p.parallel, s.batch, direct);
            const TrainingReport &r = p.report;
            EXPECT_EQ(r.timePerBatch, d.timePerBatch);
            EXPECT_EQ(r.time.forward, d.time.forward);
            EXPECT_EQ(r.time.backward, d.time.backward);
            EXPECT_EQ(r.time.recompute, d.time.recompute);
            EXPECT_EQ(r.time.embedding, d.time.embedding);
            EXPECT_EQ(r.time.tpComm, d.time.tpComm);
            EXPECT_EQ(r.time.cpComm, d.time.cpComm);
            EXPECT_EQ(r.time.epComm, d.time.epComm);
            EXPECT_EQ(r.time.ppComm, d.time.ppComm);
            EXPECT_EQ(r.time.dpComm, d.time.dpComm);
            EXPECT_EQ(r.time.bubble, d.time.bubble);
            EXPECT_EQ(r.time.optimizer, d.time.optimizer);
            EXPECT_EQ(r.memory.weights, d.memory.weights);
            EXPECT_EQ(r.memory.gradients, d.memory.gradients);
            EXPECT_EQ(r.memory.optimizer, d.memory.optimizer);
            EXPECT_EQ(r.memory.activations, d.memory.activations);
            EXPECT_EQ(r.microbatches, d.microbatches);
            EXPECT_EQ(r.bubbleFraction, d.bubbleFraction);
            EXPECT_EQ(r.modelFlops, d.modelFlops);
            EXPECT_EQ(r.mfu, d.mfu);
            expectSameEstimate(r.layerForward, d.layerForward);
            expectSameEstimate(r.layerBackward, d.layerBackward);
        }
    }
}

TEST(TrainingPlanner, OrderIsIdenticalAtAnyThreadCount)
{
    for (Sweep s : unboundedSweeps()) {
        s.opts.threads = 1;
        const std::vector<TrainingPlan> serial =
            planTraining(s.model, s.sys, s.batch, s.opts);
        // ZeRO-1 and ZeRO-2 plans of one mapping tie exactly on
        // timePerBatch, so the order of ties is part of the check.
        size_t ties = 0;
        for (size_t i = 1; i < serial.size(); ++i)
            ties += serial[i - 1].report.timePerBatch ==
                    serial[i].report.timePerBatch;
        EXPECT_GT(ties, 0u) << s.model.name;
        for (int threads : {2, 8}) {
            s.opts.threads = threads;
            const std::vector<TrainingPlan> par =
                planTraining(s.model, s.sys, s.batch, s.opts);
            ASSERT_EQ(par.size(), serial.size());
            for (size_t i = 0; i < par.size(); ++i) {
                SCOPED_TRACE(s.model.name + " rank " + std::to_string(i) +
                             " at " + std::to_string(threads) + " threads");
                EXPECT_EQ(par[i].parallel.label(), serial[i].parallel.label());
                EXPECT_EQ(par[i].parallel.microbatchSize,
                          serial[i].parallel.microbatchSize);
                EXPECT_EQ(par[i].options.recompute,
                          serial[i].options.recompute);
                EXPECT_EQ(par[i].options.memory.zeroStage,
                          serial[i].options.memory.zeroStage);
                EXPECT_EQ(par[i].report.timePerBatch,
                          serial[i].report.timePerBatch);
            }
        }
    }
}

TEST(TrainingPlanner, CountsComputeClasses)
{
    for (Sweep s : unboundedSweeps()) {
        TraceSession tr;
        s.opts.trace = &tr;
        std::vector<TrainingPlan> plans =
            planTraining(s.model, s.sys, s.batch, s.opts);
        // keep is unbounded, so the plans are the evaluated candidates.
        std::set<std::tuple<long long, bool, long long, Recompute>> keys;
        for (const TrainingPlan &p : plans)
            keys.insert({p.parallel.tensorParallel,
                         p.parallel.sequenceParallel,
                         p.parallel.microbatchSize, p.options.recompute});
        EXPECT_EQ(tr.counter("planner/plans-evaluated"),
                  double(plans.size()));
        EXPECT_EQ(tr.counter("planner/compute-classes"),
                  double(keys.size()))
            << s.model.name;
        EXPECT_LT(keys.size(), plans.size());
    }
}

TEST(ServingPlanner, RanksByPerDeviceThroughput)
{
    ServingPlannerOptions opts;
    opts.serving.promptLength = 512;
    opts.serving.generateLength = 256;
    std::vector<ServingPlan> plans = planServing(
        models::llama2_13b(), presets::dgxA100(1), opts);
    ASSERT_FALSE(plans.empty());
    for (size_t i = 1; i < plans.size(); ++i) {
        EXPECT_GE(plans[i - 1].tokensPerSecondPerDevice,
                  plans[i].tokensPerSecondPerDevice);
    }
    // Moderate TP wins per-device (sharded KV allows bigger
    // batches); high TP loses to the per-token all-reduces.
    long long winner = plans.front().tensorParallel;
    EXPECT_LE(winner, 4);
    EXPECT_GT(plans.front().tokensPerSecondPerDevice,
              plans.back().tokensPerSecondPerDevice);
}

TEST(ServingPlanner, LatencySloCapsBatch)
{
    ServingPlannerOptions loose;
    loose.serving.promptLength = 512;
    loose.serving.generateLength = 256;
    ServingPlannerOptions tight = loose;
    tight.maxInterTokenLatency = 25e-3;

    System sys = presets::dgxA100(1);
    ServingPlan free_plan =
        planServing(models::llama2_13b(), sys, loose).front();
    std::vector<ServingPlan> tight_plans =
        planServing(models::llama2_13b(), sys, tight);
    ASSERT_FALSE(tight_plans.empty());
    for (const ServingPlan &p : tight_plans)
        EXPECT_LE(p.point.interTokenLatency, 25e-3);
    EXPECT_LE(tight_plans.front().point.batch,
              free_plan.point.batch);
}

TEST(ServingPlanner, SkipsTooSmallDeployments)
{
    // 70B needs at least 2 A100s: TP1 must not appear.
    ServingPlannerOptions opts;
    std::vector<ServingPlan> plans = planServing(
        models::llama2_70b(), presets::dgxA100(1), opts);
    ASSERT_FALSE(plans.empty());
    for (const ServingPlan &p : plans)
        EXPECT_GE(p.tensorParallel, 2);
}

} // namespace
} // namespace optimus
