/**
 * @file
 * Lint is the one legality gate: every public entry point, given an
 * input lint rejects, throws a LintError carrying the error rule ids
 * that lintTraining / lintInference report for it, and lint itself
 * never throws on that input.
 */

#include <functional>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "hw/presets.h"
#include "inference/engine.h"
#include "inference/serving.h"
#include "inference/speculative.h"
#include "lint/lint.h"
#include "memory/footprint.h"
#include "planner/planner.h"
#include "training/trainer.h"
#include "util/units.h"
#include "workload/presets.h"

namespace optimus {
namespace {

std::set<std::string>
errorIds(const lint::LintReport &report)
{
    std::set<std::string> ids;
    for (const lint::Diagnostic &d : report.diagnostics())
        if (d.severity == lint::Severity::Error)
            ids.insert(d.ruleId);
    return ids;
}

/**
 * One rejected input: the rule it breaks, what lint reports for it,
 * and the entry point's call.
 */
struct GateCase
{
    const char *name;
    const char *rule;
    std::function<lint::LintReport()> lint;
    std::function<void()> call;
};

ParallelConfig
mapping(long long dp, long long tp, long long pp)
{
    ParallelConfig par;
    par.dataParallel = dp;
    par.tensorParallel = tp;
    par.pipelineParallel = pp;
    return par;
}

TrainingOptions
withSeq(long long seq)
{
    TrainingOptions opts;
    opts.seqLength = seq;
    return opts;
}

TrainingOptions
withZero(int stage)
{
    TrainingOptions opts;
    opts.memory.zeroStage = stage;
    return opts;
}

TrainingOptions
withPrecision(Precision p)
{
    TrainingOptions opts;
    opts.precision = p;
    return opts;
}

InferenceOptions
inferAt(long long tp)
{
    InferenceOptions opts;
    opts.tensorParallel = tp;
    return opts;
}

ServingOptions
serveAt(long long tp)
{
    ServingOptions opts;
    opts.tensorParallel = tp;
    return opts;
}

/** The inference a speculation cycle extends, as the gate lints it. */
InferenceOptions
cycle(const SpeculativeOptions &s)
{
    InferenceOptions io;
    io.precision = s.precision;
    io.kvPrecision = s.precision;
    io.tensorParallel = s.tensorParallel;
    io.promptLength = s.context;
    io.generateLength = s.gamma + 1;
    return io;
}

std::vector<GateCase>
gateCases()
{
    const TransformerConfig gpt7b = models::gpt7b();
    const TransformerConfig l13b = models::llama2_13b();
    const TransformerConfig l70b = models::llama2_70b();
    const TransformerConfig l7b = models::llama2_7b();
    const System node = presets::dgxA100(1);
    const System nodes8 = presets::dgxA100(8);

    TransformerConfig broken = models::gpt7b();
    broken.hiddenSize = 4097;  // heads no longer divide it

    ParallelConfig cp4 = mapping(1, 2, 1);
    cp4.contextParallel = 4;

    ParallelConfig dp3 = mapping(3, 8, 8);  // 192 devices on 64

    ServingOptions fp8_serving;
    fp8_serving.precision = Precision::FP8;

    SpeculativeOptions spec_tp3;
    spec_tp3.tensorParallel = 3;
    SpeculativeOptions spec_tp16;
    spec_tp16.tensorParallel = 16;

    InferenceOptions no_prompt;
    no_prompt.promptLength = 0;

    TrainingPlannerOptions seq0;
    seq0.training.seqLength = 0;
    TrainingPlannerOptions zero5;
    zero5.zeroStages = {0, 5};
    ServingPlannerOptions fp8_plan;
    fp8_plan.serving.precision = Precision::FP8;

    const ParallelConfig tp3 = mapping(1, 3, 1);
    const ParallelConfig dp8 = mapping(8, 1, 1);
    const TrainingOptions fp8 = withPrecision(Precision::FP8);
    const TrainingOptions overlap3 = {.tpOverlapFraction = 3.0};
    const TrainingPlannerOptions plan_overlap3 = {.training = overlap3};
    InferenceOptions batch0 = servingInference(serveAt(1));
    batch0.batch = 0;

    return {
        {"evaluateTraining: TP 3", lint::kRuleTpHeads,
         [=] { return lint::lintTraining(gpt7b, node, tp3, 64); },
         [=] { evaluateTraining(gpt7b, node, tp3, 64); }},
        {"evaluateTraining: DP 3 on 64 devices", lint::kRuleDeviceCount,
         [=] {
             return lint::lintTraining(models::gpt175b(), nodes8, dp3,
                                       192);
         },
         [=] { evaluateTraining(models::gpt175b(), nodes8, dp3, 192); }},
        {"evaluateTraining: seq 0", lint::kRuleMappingPositive,
         [=] { return lint::lintTraining(gpt7b, node, dp8, 64, withSeq(0)); },
         [=] { evaluateTraining(gpt7b, node, dp8, 64, withSeq(0)); }},
        {"evaluateTraining: ZeRO 5", lint::kRuleZeroStage,
         [=] { return lint::lintTraining(gpt7b, node, dp8, 64, withZero(5)); },
         [=] { evaluateTraining(gpt7b, node, dp8, 64, withZero(5)); }},
        {"evaluateTraining: TP overlap 3", lint::kRuleOverlapFraction,
         [=] { return lint::lintTraining(gpt7b, node, dp8, 64, overlap3); },
         [=] { evaluateTraining(gpt7b, node, dp8, 64, overlap3); }},
        {"evaluateTraining: CP without flash attention",
         lint::kRuleContextParallelFlash,
         [=] { return lint::lintTraining(gpt7b, node, cp4, 8); },
         [=] { evaluateTraining(gpt7b, node, cp4, 8); }},
        {"evaluateTraining: fp8 on A100", lint::kRulePrecisionSupport,
         [=] { return lint::lintTraining(gpt7b, node, dp8, 64, fp8); },
         [=] { evaluateTraining(gpt7b, node, dp8, 64, fp8); }},
        {"evaluateTraining: broken model", lint::kRuleModelStructure,
         [=] { return lint::lintTraining(broken, node, dp8, 64); },
         [=] { evaluateTraining(broken, node, dp8, 64); }},
        {"evaluateInference: TP 3", lint::kRuleTpHeads,
         [=] { return lint::lintInference(l13b, node, inferAt(3)); },
         [=] { evaluateInference(l13b, node, inferAt(3)); }},
        {"evaluateInference: prompt 0", lint::kRuleMappingPositive,
         [=] { return lint::lintInference(l13b, node, no_prompt); },
         [=] { evaluateInference(l13b, node, no_prompt); }},
        {"servingSweep: TP 3", lint::kRuleTpHeads,
         [=] {
             return lint::lintInference(l13b, node,
                                        servingInference(serveAt(3)));
         },
         [=] { servingSweep(l13b, node, serveAt(3), {1, 2}); }},
        {"servingSweep: batch 0", lint::kRuleMappingPositive,
         [=] { return lint::lintInference(l13b, node, batch0); },
         [=] { servingSweep(l13b, node, serveAt(1), {0, 2}); }},
        {"evaluateSpeculative: TP 3 on llama2-70b", lint::kRuleTpHeads,
         [=] { return lint::lintInference(l70b, node, cycle(spec_tp3)); },
         [=] { evaluateSpeculative(l70b, l7b, node, spec_tp3); }},
        {"evaluateSpeculative: TP 16 on one node", lint::kRuleDeviceCount,
         [=] { return lint::lintInference(l70b, node, cycle(spec_tp16)); },
         [=] { evaluateSpeculative(l70b, l7b, node, spec_tp16); }},
        {"planTraining: broken model", lint::kRuleModelStructure,
         [=] { return lint::lintTraining(broken, node, dp8, 64); },
         [=] { planTraining(broken, node, 64); }},
        {"planTraining: seq 0", lint::kRuleMappingPositive,
         [=] { return lint::lintTraining(gpt7b, node, dp8, 64, withSeq(0)); },
         [=] { planTraining(gpt7b, node, 64, seq0); }},
        {"planTraining: ZeRO 5", lint::kRuleZeroStage,
         [=] { return lint::lintTraining(gpt7b, node, dp8, 64, withZero(5)); },
         [=] { planTraining(gpt7b, node, 64, zero5); }},
        {"planTraining: TP overlap 3", lint::kRuleOverlapFraction,
         [=] { return lint::lintTraining(gpt7b, node, dp8, 64, overlap3); },
         [=] { planTraining(gpt7b, node, 64, plan_overlap3); }},
        {"planServing: fp8 on A100", lint::kRulePrecisionSupport,
         [=] {
             return lint::lintInference(l13b, node,
                                        servingInference(fp8_serving));
         },
         [=] { planServing(l13b, node, fp8_plan); }},
        {"prefillGemmTable: TP 3", lint::kRuleTpHeads,
         [=] { return lint::lintInference(l13b, node, inferAt(3)); },
         [=] { prefillGemmTable(node.device, l13b, inferAt(3)); }},
        {"decodeGemmTable: TP 3", lint::kRuleTpHeads,
         [=] { return lint::lintInference(l13b, node, inferAt(3)); },
         [=] { decodeGemmTable(node.device, l13b, inferAt(3), 512); }},
    };
}

TEST(LintGate, EveryEntryPointThrowsTheRuleIdsLintReports)
{
    for (const GateCase &c : gateCases()) {
        SCOPED_TRACE(c.name);
        lint::LintReport expected;
        ASSERT_NO_THROW(expected = c.lint());
        ASSERT_TRUE(expected.hasErrors());
        try {
            c.call();
            ADD_FAILURE() << "expected LintError";
        } catch (const LintError &e) {
            EXPECT_TRUE(e.report().has(c.rule));
            EXPECT_EQ(errorIds(e.report()), errorIds(expected));
        }
    }
}

TEST(LintGate, MemoryFitIsReportedNotEnforced)
{
    // Without sequence parallelism, storing every activation of
    // GPT-175B overflows an A100: lint reports it, the evaluator
    // still prices the mapping and returns the footprint.
    ParallelConfig no_sp = mapping(1, 8, 8);
    TrainingOptions opts;
    opts.recompute = Recompute::None;
    const System sys = presets::dgxA100(8);
    EXPECT_TRUE(lint::lintTraining(models::gpt175b(), sys, no_sp, 64, opts)
                    .has(lint::kRuleTrainMemory));
    TrainingReport rep =
        evaluateTraining(models::gpt175b(), sys, no_sp, 64, opts);
    EXPECT_GT(rep.memory.total(), sys.device.dram().capacity);

    ParallelConfig sp = no_sp;
    sp.sequenceParallel = true;
    opts.recompute = Recompute::Selective;
    EXPECT_FALSE(lint::lintTraining(models::gpt175b(), sys, sp, 64, opts)
                     .hasErrors());
    EXPECT_LE(trainingMemoryPerDevice(models::gpt175b(), sp, 64, opts)
                  .total(),
              80 * GiB);
}

} // namespace
} // namespace optimus
