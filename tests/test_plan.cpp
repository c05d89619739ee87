/**
 * @file
 * Tests for the kernel-plan IR (src/plan): the plan fold reproduces
 * the evaluator reports, step identities are deterministic across
 * thread counts (with a shared estimate cache), the JSON dump round
 * trips, and the communication group-scope convention is honored at
 * its boundary (including the inference per-layer TP all-reduce,
 * which used to be pinned intra-node).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "comm/collective.h"
#include "exec/exec.h"
#include "hw/presets.h"
#include "plan/plan.h"
#include "workload/presets.h"

namespace optimus {
namespace {

void
expectNearRel(double expected, double actual, double rel)
{
    EXPECT_NEAR(expected, actual,
                rel * std::max(1.0, std::abs(expected)));
}

/** Table 1's GPT-175B mapping: 64 GPUs, tp8 x pp8, sequence parallel. */
void
table1Config(TransformerConfig *model, System *sys, ParallelConfig *par,
             TrainingOptions *opts)
{
    *model = models::gpt175b();
    *sys = presets::dgxA100(8);
    par->dataParallel = 1;
    par->tensorParallel = 8;
    par->pipelineParallel = 8;
    par->sequenceParallel = true;
    opts->recompute = Recompute::Selective;
}

/** A Table 2 style serving point: Llama2-13B, tp2, short generation. */
InferenceOptions
table2Options()
{
    InferenceOptions opts;
    opts.tensorParallel = 2;
    opts.batch = 2;
    opts.promptLength = 256;
    opts.generateLength = 8;
    return opts;
}

TEST(Plan, TrainingFoldReproducesEvaluatorReport)
{
    TransformerConfig model;
    System sys;
    ParallelConfig par;
    TrainingOptions opts;
    table1Config(&model, &sys, &par, &opts);

    plan::TrainingRun run =
        plan::runTraining(model, sys, par, 64, opts);
    TrainingReport rep =
        evaluateTraining(model, sys, par, 64, opts);

    // The public evaluator is a thin driver over the same pipeline.
    EXPECT_EQ(rep.timePerBatch, run.report.timePerBatch);
    EXPECT_EQ(rep.time.forward, run.report.time.forward);
    EXPECT_EQ(rep.time.tpComm, run.report.time.tpComm);
    EXPECT_EQ(rep.mfu, run.report.mfu);

    // An independent re-fold of the evaluated plan reproduces the
    // breakdown, and the step totals sum to the batch time.
    plan::FoldedTraining f = plan::foldTraining(run.plan, nullptr);
    EXPECT_EQ(f.time.total(), rep.time.total());
    double step_sum = 0.0;
    for (const plan::StepEval &ev : run.plan.evals)
        step_sum += ev.total;
    expectNearRel(rep.timePerBatch, step_sum, 1e-9);

    // Every category lands in exactly one breakdown field.
    EXPECT_GT(f.time.forward, 0.0);
    EXPECT_GT(f.time.backward, f.time.forward);
    EXPECT_GT(f.time.tpComm, 0.0);
    EXPECT_GT(f.time.bubble, 0.0);
}

TEST(Plan, InferenceFoldReproducesEvaluatorReport)
{
    TransformerConfig model = models::llama2_13b();
    System sys = presets::dgxA100(1);
    InferenceOptions opts = table2Options();

    plan::InferenceRun run = plan::runInference(model, sys, opts);
    InferenceReport rep = evaluateInference(model, sys, opts);

    EXPECT_EQ(rep.totalLatency, run.report.totalLatency);
    EXPECT_EQ(rep.prefill.time, run.report.prefill.time);
    EXPECT_EQ(rep.decode.commTime, run.report.decode.commTime);

    double step_sum = 0.0;
    for (const plan::StepEval &ev : run.plan.evals)
        step_sum += ev.total;
    expectNearRel(rep.totalLatency, step_sum, 1e-9);

    // Phase routing: prefill + decode partition the step stream.
    plan::FoldedInference f = plan::foldInference(run.plan, nullptr);
    expectNearRel(f.prefill.time + f.decode.time, step_sum, 1e-9);
    EXPECT_GT(f.prefill.computeBoundGemmTime, 0.0);
    EXPECT_GT(f.decode.memoryBoundGemmTime, 0.0);
    EXPECT_GT(f.decode.commTime, 0.0);
}

TEST(Plan, StepIdentitiesDeterministicAcrossThreads)
{
    TransformerConfig model;
    System sys;
    ParallelConfig par;
    TrainingOptions opts;
    table1Config(&model, &sys, &par, &opts);

    plan::EvaluatedPlan ref = plan::evaluatePlan(
        plan::lowerTraining(model, sys, par, 64, opts), sys);

    // Eight workers re-evaluate the same plan through one shared
    // estimate cache; every replica must be bit-identical to the
    // serial reference, step by step.
    plan::EvalCache cache;
    plan::EvaluateOptions eo;
    eo.cache = &cache;
    std::vector<plan::EvaluatedPlan> replicas = exec::parallelMap(
        8, 8, [&](long long) {
            return plan::evaluatePlan(
                plan::lowerTraining(model, sys, par, 64, opts), sys,
                eo);
        });
    EXPECT_GT(cache.size(), 0u);
    for (const plan::EvaluatedPlan &ep : replicas) {
        ASSERT_EQ(ref.plan.steps.size(), ep.plan.steps.size());
        for (size_t i = 0; i < ref.plan.steps.size(); ++i) {
            EXPECT_EQ(ref.plan.steps[i].lane, ep.plan.steps[i].lane);
            EXPECT_EQ(ref.plan.steps[i].name, ep.plan.steps[i].name);
            EXPECT_EQ(ref.evals[i].total, ep.evals[i].total);
            EXPECT_EQ(ref.evals[i].perInstance,
                      ep.evals[i].perInstance);
        }
    }
}

TEST(Plan, JsonDumpRoundTrips)
{
    TransformerConfig model;
    System sys;
    ParallelConfig par;
    TrainingOptions opts;
    table1Config(&model, &sys, &par, &opts);
    plan::TrainingRun run =
        plan::runTraining(model, sys, par, 64, opts);

    JsonValue doc = plan::planJson(run.plan);
    EXPECT_EQ("optimus-kernel-plan", doc.at("schema").asString());
    EXPECT_EQ(1, doc.at("version").asInt());
    EXPECT_EQ("training", doc.at("phase").asString());
    ASSERT_FALSE(doc.at("steps").asArray().empty());

    // dump -> parse -> summaries -> dump must be byte-stable (the
    // number formatter round-trips doubles losslessly).
    const std::string text = doc.dump(2);
    JsonValue parsed = JsonValue::parse(text);
    std::string phase;
    std::vector<plan::StepSummary> steps =
        plan::summariesFromJson(parsed, &phase);
    EXPECT_EQ("training", phase);
    EXPECT_EQ(doc.at("steps").asArray().size(), steps.size());
    JsonValue again = plan::summariesToJson(steps, phase);
    EXPECT_EQ(text, again.dump(2));

    // The dump's totals tie out against the report.
    expectNearRel(run.report.timePerBatch,
                  doc.at("totals").at("time").asNumber(), 1e-9);

    // The CSV has one row per step plus a header.
    std::string csv = plan::planCsv(run.plan);
    size_t lines = 0;
    for (char c : csv)
        if (c == '\n')
            ++lines;
    EXPECT_EQ(steps.size() + 1, lines);
}

TEST(Plan, GroupScopeBoundaryIsProductOverNode)
{
    System sys = presets::dgxA100(2);  // 16 devices, 8 per node
    EXPECT_EQ(GroupScope::IntraNode, groupScopeFor(sys, 1));
    EXPECT_EQ(GroupScope::IntraNode, groupScopeFor(sys, 8));
    EXPECT_EQ(GroupScope::InterNode, groupScopeFor(sys, 9));
    EXPECT_EQ(GroupScope::InterNode, groupScopeFor(sys, 16));
}

TEST(Plan, InferenceTpAllReduceSpansNodesWhenTpExceedsNode)
{
    // Regression: the per-layer TP all-reduce used to be pinned
    // intra-node even when the TP group spanned nodes. GPT-175B has
    // 96 heads, so tp16 divides evenly across two DGX nodes.
    TransformerConfig model = models::gpt175b();
    System sys = presets::dgxA100(2);
    InferenceOptions opts;
    opts.tensorParallel = 16;
    opts.batch = 1;
    opts.promptLength = 256;
    opts.generateLength = 4;

    plan::KernelPlan kp = plan::lowerInference(model, sys, opts);
    size_t allreduces = 0;
    for (const plan::PlanStep &st : kp.steps)
        if (st.kind == plan::StepKind::Collective &&
            st.name == "tp-allreduce") {
            ++allreduces;
            EXPECT_EQ(GroupScope::InterNode, st.scope);
            EXPECT_EQ(16, st.groupSize);
        }
    EXPECT_GT(allreduces, 0u);

    // The same group at tp8 stays on NVLink and must be faster per
    // byte: compare effective bandwidth of the two scopes directly.
    double volume = 1 << 20;
    CollectiveResult intra = systemCollective(
        sys, CollectiveKind::AllReduce, volume, 8,
        GroupScope::IntraNode);
    CollectiveResult inter = systemCollective(
        sys, CollectiveKind::AllReduce, volume, 16,
        GroupScope::InterNode);
    EXPECT_GT(intra.effectiveBandwidth, inter.effectiveBandwidth);

    // End to end: the report charges the inter-node collective.
    InferenceReport rep = evaluateInference(model, sys, opts);
    EXPECT_GT(rep.prefill.commTime, 0.0);
    EXPECT_GT(rep.decode.commTime, 0.0);
}

TEST(Plan, KernelAggregatesMatchStepStream)
{
    TransformerConfig model = models::gpt7b();
    System sys = presets::dgxA100(1);
    ParallelConfig par;
    par.dataParallel = 2;
    par.tensorParallel = 4;
    par.sequenceParallel = true;
    TrainingOptions opts;
    opts.recompute = Recompute::Selective;

    plan::TrainingRun run = plan::runTraining(model, sys, par, 32,
                                              opts, {.detail = true});
    std::vector<plan::KernelAggregate> aggs =
        plan::kernelAggregates(run.plan);
    ASSERT_FALSE(aggs.empty());
    for (const plan::KernelAggregate &a : aggs) {
        EXPECT_GT(a.count, 0);
        EXPECT_GE(a.time, 0.0);
        EXPECT_FALSE(a.bound.empty()) << a.key;
        // Identities are "<lane>/<name>".
        EXPECT_NE(std::string::npos, a.key.find('/')) << a.key;
    }
}

} // namespace
} // namespace optimus
