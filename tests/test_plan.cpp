/**
 * @file
 * Tests for the kernel-plan IR (src/plan): the plan fold reproduces
 * the evaluator reports, step identities and estimates are the same
 * with no cache and with a cold or warm shared estimate cache, at any
 * thread count, the JSON dump round trips, and the communication
 * group-scope convention is honored at its boundary (including the
 * inference per-layer TP all-reduce, which used to be pinned
 * intra-node), and a token-range decode plan evaluates and folds
 * bit-identically to one step per (token, op) and lowers with the
 * same number of allocations at any generation length.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "comm/collective.h"
#include "exec/exec.h"
#include "hw/presets.h"
#include "inference/engine.h"
#include "lint/lint.h"
#include "plan/plan.h"
#include "roofline/gemm.h"
#include "trace/trace.h"
#include "workload/presets.h"

namespace {

/** Heap allocations counted while g_countAllocations is set. */
std::atomic<long long> g_allocations{0};
std::atomic<bool> g_countAllocations{false};

} // namespace

// This test binary's global allocation functions count allocations
// and forward to malloc/free, so sanitizer builds still track them.
// The deallocation functions stay out of line: inlined, GCC would
// see free() called on operator new's result and warn.
void *
operator new(std::size_t n)
{
    if (g_countAllocations.load(std::memory_order_relaxed))
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace optimus {
namespace {

/** Heap allocations @p fn makes on this thread and any other. */
template <typename Fn>
long long
allocationsIn(Fn &&fn)
{
    g_allocations = 0;
    g_countAllocations = true;
    fn();
    g_countAllocations = false;
    return g_allocations;
}

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

/** Every step of @p ep bit-equal to @p ref, part estimates included. */
void
expectSameEvaluation(const plan::EvaluatedPlan &ref,
                     const plan::EvaluatedPlan &ep)
{
    ASSERT_EQ(ref.plan.steps.size(), ep.plan.steps.size());
    for (size_t i = 0; i < ref.plan.steps.size(); ++i) {
        EXPECT_EQ(ref.plan.steps[i].lane, ep.plan.steps[i].lane);
        EXPECT_EQ(ref.plan.steps[i].name, ep.plan.steps[i].name);
        EXPECT_EQ(ref.evals[i].total, ep.evals[i].total);
        EXPECT_EQ(ref.evals[i].perInstance, ep.evals[i].perInstance);
        ASSERT_EQ(ref.evals[i].partEsts.size(),
                  ep.evals[i].partEsts.size());
        for (size_t j = 0; j < ref.evals[i].partEsts.size(); ++j)
            EXPECT_EQ(ref.evals[i].partEsts[j].time,
                      ep.evals[i].partEsts[j].time);
    }
}

TEST(Plan, StepIdentitiesDeterministicAcrossThreads)
{
    TransformerConfig model;
    System sys;
    ParallelConfig par;
    TrainingOptions opts;
    table1Config(&model, &sys, &par, &opts);
    const InferenceOptions iopts = table2Options();
    const TransformerConfig imodel = models::llama2_13b();
    const System isys = presets::dgxA100(1);

    auto lowerTrain = [&] {
        return plan::lowerTraining(model, sys, par, 64, opts);
    };
    auto lowerInfer = [&] {
        return plan::lowerInference(imodel, isys, iopts);
    };
    // The reference prices every step directly, with no cache.
    const plan::EvaluatedPlan train_ref =
        plan::evaluatePlan(lowerTrain(), sys);
    const plan::EvaluatedPlan infer_ref =
        plan::evaluatePlan(lowerInfer(), isys);
    bool has_recompute = false;
    for (const plan::PlanStep &st : train_ref.plan.steps)
        has_recompute |= st.category == "recompute";
    ASSERT_TRUE(has_recompute);

    // A cold shared cache, then the same cache warm, give the same
    // estimates as no cache at all.
    plan::EvalCache train_cache, infer_cache;
    for (int pass = 0; pass < 2; ++pass) {
        expectSameEvaluation(
            train_ref, plan::evaluatePlan(lowerTrain(), sys,
                                          {.cache = &train_cache}));
        expectSameEvaluation(
            infer_ref, plan::evaluatePlan(lowerInfer(), isys,
                                          {.cache = &infer_cache}));
    }
    EXPECT_GT(train_cache.size(), 0u);
    EXPECT_GT(infer_cache.size(), 0u);

    // Eight workers re-evaluate the same plan through one shared
    // estimate cache; every replica must be bit-identical to the
    // serial reference, step by step.
    plan::EvalCache cache;
    plan::EvaluateOptions eo;
    eo.cache = &cache;
    std::vector<plan::EvaluatedPlan> replicas = exec::parallelMap(
        8, 8, [&](long long) {
            return plan::evaluatePlan(lowerTrain(), sys, eo);
        });
    EXPECT_GT(cache.size(), 0u);
    for (const plan::EvaluatedPlan &ep : replicas)
        expectSameEvaluation(train_ref, ep);
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

// ---- Token-range decode ------------------------------------------------

/**
 * @p kp with every token range replaced, in place, by one-token
 * lowerings of each of its tokens: the plan with one step per
 * (token, op) that the token ranges stand for.
 */
plan::KernelPlan
perTokenPlan(const plan::KernelPlan &kp, const TransformerConfig &cfg,
             const System &sys, const InferenceOptions &opts)
{
    plan::KernelPlan ref = kp;
    ref.steps.clear();
    for (size_t i = 0; i < kp.steps.size();) {
        const plan::PlanStep &st = kp.steps[i];
        if (st.repeatToken == 1) {
            ref.steps.push_back(st);
            ++i;
            continue;
        }
        for (long long t = st.step; t < st.step + st.repeatToken; ++t)
            plan::lowerDecodeTokens(cfg, sys, opts, t, 1, ref.steps);
        while (i < kp.steps.size() && kp.steps[i].step == st.step &&
               kp.steps[i].repeatToken == st.repeatToken)
            ++i;
    }
    return ref;
}

void
expectSamePhase(const PhaseReport &a, const PhaseReport &b)
{
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.computeBoundGemmTime, b.computeBoundGemmTime);
    EXPECT_EQ(a.memoryBoundGemmTime, b.memoryBoundGemmTime);
    EXPECT_EQ(a.otherKernelTime, b.otherKernelTime);
    EXPECT_EQ(a.commTime, b.commTime);
    EXPECT_EQ(a.overheadTime, b.overheadTime);
    EXPECT_EQ(a.memoryTime, b.memoryTime);
}

/**
 * Lower @p opts as token ranges and as one step per (token, op);
 * both must fold, trace and aggregate bit-identically.
 */
void
expectTokenRangesMatchPerTokenPlan(const TransformerConfig &cfg,
                                   const System &sys,
                                   const InferenceOptions &opts)
{
    plan::KernelPlan kp = plan::lowerInference(cfg, sys, opts);
    plan::KernelPlan ref_kp = perTokenPlan(kp, cfg, sys, opts);
    for (const plan::PlanStep &st : ref_kp.steps) {
        EXPECT_EQ(1, st.repeatToken);
        EXPECT_FALSE(st.contextDependent);
    }
    if (opts.generateLength > 1) {
        EXPECT_LT(kp.steps.size(), ref_kp.steps.size());
    }

    plan::EvaluatedPlan ep = plan::evaluatePlan(std::move(kp), sys);
    plan::EvaluatedPlan ref = plan::evaluatePlan(std::move(ref_kp), sys);

    TraceSession trace, ref_trace;
    plan::FoldedInference f = plan::foldInference(ep, &trace);
    plan::FoldedInference rf = plan::foldInference(ref, &ref_trace);
    expectSamePhase(rf.prefill, f.prefill);
    expectSamePhase(rf.decode, f.decode);

    ASSERT_EQ(ref_trace.lanes().size(), trace.lanes().size());
    for (size_t i = 0; i < trace.lanes().size(); ++i)
        EXPECT_EQ(ref_trace.lanes()[i].name, trace.lanes()[i].name);
    const std::vector<TraceSpan> &spans = trace.spans();
    const std::vector<TraceSpan> &ref_spans = ref_trace.spans();
    ASSERT_EQ(ref_spans.size(), spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        SCOPED_TRACE("span " + std::to_string(i));
        EXPECT_EQ(ref_spans[i].lane, spans[i].lane);
        EXPECT_EQ(ref_spans[i].name, spans[i].name);
        EXPECT_EQ(ref_spans[i].category, spans[i].category);
        EXPECT_EQ(ref_spans[i].start, spans[i].start);
        EXPECT_EQ(ref_spans[i].duration, spans[i].duration);
        EXPECT_EQ(ref_spans[i].step, spans[i].step);
        EXPECT_EQ(ref_spans[i].flops, spans[i].flops);
        EXPECT_EQ(ref_spans[i].bytesPerLevel, spans[i].bytesPerLevel);
        EXPECT_EQ(ref_spans[i].bound, spans[i].bound);
    }

    std::vector<plan::KernelAggregate> aggs = plan::kernelAggregates(ep);
    std::vector<plan::KernelAggregate> ref_aggs =
        plan::kernelAggregates(ref);
    ASSERT_EQ(ref_aggs.size(), aggs.size());
    for (size_t i = 0; i < aggs.size(); ++i) {
        SCOPED_TRACE(ref_aggs[i].key);
        EXPECT_EQ(ref_aggs[i].key, aggs[i].key);
        EXPECT_EQ(ref_aggs[i].category, aggs[i].category);
        EXPECT_EQ(ref_aggs[i].count, aggs[i].count);
        EXPECT_EQ(ref_aggs[i].time, aggs[i].time);
        EXPECT_EQ(ref_aggs[i].flops, aggs[i].flops);
        EXPECT_EQ(ref_aggs[i].dramBytes, aggs[i].dramBytes);
        EXPECT_EQ(ref_aggs[i].overhead, aggs[i].overhead);
        EXPECT_EQ(ref_aggs[i].bound, aggs[i].bound);
    }
}

InferenceOptions
decodeOptions(long long generate)
{
    InferenceOptions opts;
    opts.batch = 2;
    opts.promptLength = 128;
    opts.generateLength = generate;
    return opts;
}

TEST(TokenRangeDecode, MatchesPerTokenPlanLlama2_13b)
{
    expectTokenRangesMatchPerTokenPlan(models::llama2_13b(),
                                       presets::dgxA100(1),
                                       decodeOptions(48));
}

TEST(TokenRangeDecode, MatchesPerTokenPlanTp16AcrossNodes)
{
    InferenceOptions opts = decodeOptions(24);
    opts.tensorParallel = 16;
    expectTokenRangesMatchPerTokenPlan(models::llama2_70b(),
                                       presets::dgxA100(2), opts);
}

TEST(TokenRangeDecode, MatchesPerTokenPlanPipelineFp8Kv)
{
    InferenceOptions opts = decodeOptions(24);
    opts.tensorParallel = 4;
    opts.pipelineParallel = 2;
    opts.kvPrecision = Precision::FP8;
    expectTokenRangesMatchPerTokenPlan(models::llama3_70b(),
                                       presets::dgxA100(1), opts);
}

TEST(TokenRangeDecode, MatchesPerTokenPlanAcrossSlidingWindow)
{
    // The window is crossed after 16 of the 48 generated tokens; past
    // it the attention ops repeat.
    TransformerConfig cfg = models::mixtral8x7b();
    InferenceOptions opts = decodeOptions(48);
    cfg.slidingWindow = opts.promptLength + 16;
    expectTokenRangesMatchPerTokenPlan(cfg, presets::dgxA100(1), opts);
}

TEST(TokenRangeDecode, MatchesPerTokenPlanOneToken)
{
    expectTokenRangesMatchPerTokenPlan(models::llama2_13b(),
                                       presets::dgxA100(1),
                                       decodeOptions(1));
}

TEST(TokenRangeDecode, PlanSizeIndependentOfGeneratedTokens)
{
    TransformerConfig cfg = models::llama2_13b();
    System sys = presets::dgxA100(1);
    plan::KernelPlan k64 =
        plan::lowerInference(cfg, sys, decodeOptions(64));
    plan::KernelPlan k4096 =
        plan::lowerInference(cfg, sys, decodeOptions(4096));
    EXPECT_EQ(k64.steps.size(), k4096.steps.size());
    EXPECT_LT(k4096.steps.size(), 64u);

    size_t per_token_steps = 0;
    for (const plan::PlanStep &st : k4096.steps) {
        if (!st.contextDependent)
            continue;
        ++per_token_steps;
        EXPECT_EQ(4096, st.repeatToken) << st.name;
        EXPECT_EQ(128 + 1, st.context) << st.name;
        EXPECT_EQ(st.name,
                  st.attention.op(st.attentionOp, st.context).name);
        EXPECT_TRUE(st.parts.empty()) << st.name;
    }
    EXPECT_EQ(3u, per_token_steps);  // qk^T, attn-softmax, attn-v
}

TEST(TokenRangeDecode, LoweringAllocationsIndependentOfGeneratedTokens)
{
    // A token range keeps its first token's context, not one op per
    // token, so lowering allocates the same at any generation length.
    // The lint gate it runs first is not counted: past the model's
    // 4,096-token maxSeqLength it adds a warning.
    TransformerConfig cfg = models::llama2_13b();
    System sys = presets::dgxA100(1);
    auto lowering = [&](long long generate) {
        const InferenceOptions opts = decodeOptions(generate);
        return allocationsIn([&] {
                   plan::KernelPlan kp =
                       plan::lowerInference(cfg, sys, opts);
               }) -
               allocationsIn([&] {
                   lint::LintReport r =
                       lint::lintInferenceGate(cfg, sys, opts);
               });
    };
    const long long at64 = lowering(64);
    EXPECT_GT(at64, 0);
    EXPECT_EQ(at64, lowering(4096));
}

TEST(TokenRangeDecode, NoTileSearchPerToken)
{
    // Per-token attention fits every cache level whole, so the tile
    // searches of an inference eval (prefill and context-invariant
    // decode ops) do not grow with the number of generated tokens.
    TransformerConfig cfg = models::llama2_13b();
    System sys = presets::dgxA100(1);
    auto lookups = [&](long long generate) {
        tileCacheClear();
        InferenceOptions opts;
        opts.generateLength = generate;
        evaluateInference(cfg, sys, opts);
        TileCacheStats s = tileCacheStats();
        return s.hits + s.misses;
    };
    const unsigned long long at64 = lookups(64);
    EXPECT_GT(at64, 0u);
    EXPECT_EQ(at64, lookups(4096));
}

TEST(TokenRangeDecode, KernelsDumpTotalsMatchPerTokenPlan)
{
    TransformerConfig cfg = models::llama2_13b();
    System sys = presets::dgxA100(1);
    for (long long generate : {64LL, 4096LL}) {
        SCOPED_TRACE("generate " + std::to_string(generate));
        InferenceOptions opts;
        opts.generateLength = generate;
        plan::KernelPlan kp = plan::lowerInference(cfg, sys, opts);
        plan::KernelPlan ref_kp = perTokenPlan(kp, cfg, sys, opts);
        JsonValue doc = plan::planJson(plan::evaluatePlan(kp, sys));
        JsonValue ref =
            plan::planJson(plan::evaluatePlan(std::move(ref_kp), sys));
        for (const char *field : {"time", "flops", "dram_bytes"})
            EXPECT_NEAR(ref.at("totals").at(field).asNumber(),
                        doc.at("totals").at(field).asNumber(),
                        1e-12 * ref.at("totals").at(field).asNumber())
                << field;

        // A range row counts every (layer, token) instance.
        for (const JsonValue &row : doc.at("steps").asArray())
            if (row.at("lane").asString() == "decode" &&
                row.at("name").asString() == "qk^T") {
                EXPECT_EQ(double(cfg.numLayers * generate),
                          row.at("count").asNumber());
                expectNearRel(row.at("total_s").asNumber() /
                                  row.at("count").asNumber(),
                              row.at("per_instance_s").asNumber(),
                              1e-12);
            }
    }
}

} // namespace
} // namespace optimus
