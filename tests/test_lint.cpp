/**
 * @file
 * Unit tests for the lint subsystem: one firing (positive) and one
 * clean (negative) case per rule ID, plus report plumbing and the
 * formatter edge cases.
 */

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "hw/presets.h"
#include "lint/lint.h"
#include "training/trainer.h"
#include "util/units.h"
#include "workload/presets.h"

namespace optimus {
namespace {

using lint::LintReport;

/** 8x A100, one node. */
System
oneNode()
{
    return presets::dgxA100(1);
}

/** A legal mapping of GPT-7B onto one DGX node. */
ParallelConfig
cleanMapping()
{
    ParallelConfig par;
    par.dataParallel = 1;
    par.tensorParallel = 8;
    par.pipelineParallel = 1;
    return par;
}

// ---- Report plumbing ---------------------------------------------------

TEST(LintReport, CountsAndSummary)
{
    LintReport r;
    EXPECT_TRUE(r.empty());
    EXPECT_FALSE(r.hasErrors());
    r.error("OPT-X-001", "first", "fix it");
    r.error("OPT-X-002", "second");
    r.warning("OPT-X-003", "soft");
    EXPECT_EQ(r.errorCount(), 2u);
    EXPECT_EQ(r.warningCount(), 1u);
    EXPECT_TRUE(r.hasErrors());
    EXPECT_TRUE(r.has("OPT-X-002"));
    EXPECT_FALSE(r.has("OPT-X-009"));
    EXPECT_EQ(r.summary(), "2 errors, 1 warning");
}

TEST(LintReport, JoinedMessagesPrefersErrors)
{
    LintReport r;
    r.warning("OPT-W-001", "only a warning");
    EXPECT_NE(r.joinedMessages().find("only a warning"),
              std::string::npos);
    r.error("OPT-E-001", "hard failure");
    // Once an error exists, warnings drop out of the what() string.
    EXPECT_EQ(r.joinedMessages().find("only a warning"),
              std::string::npos);
    EXPECT_NE(r.joinedMessages().find("[OPT-E-001] hard failure"),
              std::string::npos);
}

TEST(LintReport, MergeAppends)
{
    LintReport a, b;
    a.error("OPT-A-001", "a");
    b.warning("OPT-B-001", "b");
    a.merge(b);
    EXPECT_EQ(a.diagnostics().size(), 2u);
    EXPECT_TRUE(a.has("OPT-B-001"));
}

TEST(LintReport, EnforceThrowsLintErrorCarryingReport)
{
    LintReport clean;
    clean.warning("OPT-W-001", "warnings do not throw");
    EXPECT_NO_THROW(lint::enforce(clean));

    LintReport bad;
    bad.error("OPT-E-001", "one");
    bad.error("OPT-E-002", "two");
    try {
        lint::enforce(bad);
        FAIL() << "expected LintError";
    } catch (const LintError &e) {
        EXPECT_EQ(e.report().errorCount(), 2u);
        EXPECT_NE(std::string(e.what()).find("OPT-E-002"),
                  std::string::npos);
    }
}

TEST(LintCatalog, EveryRuleIdIsCataloguedOnce)
{
    std::set<std::string> ids;
    for (const lint::RuleInfo &info : lint::ruleCatalog()) {
        EXPECT_TRUE(ids.insert(info.id).second)
            << "duplicate rule id " << info.id;
        EXPECT_NE(std::string(info.summary), "");
    }
    for (const char *id :
         {lint::kRuleTpHeads, lint::kRuleTrainMemory,
          lint::kRuleFewMicrobatches, lint::kRuleSuspiciousUnits,
          lint::kRulePrecisionSupport, lint::kRuleTpFfn,
          lint::kRuleDeviceCount, lint::kRuleTpSpansNodes,
          lint::kRuleLayersPerStage, lint::kRuleInterleaveSchedule,
          lint::kRuleExpertParallel, lint::kRuleBatchVsDp,
          lint::kRuleMicrobatchDivides, lint::kRuleTpKvHeads,
          lint::kRuleInferMemory, lint::kRuleSequenceLength,
          lint::kRuleKvPrecision, lint::kRuleModelStructure,
          lint::kRuleSystemStructure, lint::kRuleMappingPositive,
          lint::kRuleSeqVsContextParallel, lint::kRuleZeroStage,
          lint::kRuleContextParallelFlash, lint::kRuleOverlapFraction,
          lint::kRuleUnknownField})
        EXPECT_TRUE(ids.count(id)) << id << " missing from catalog";
    EXPECT_EQ(ids.size(), 25u);
}

// ---- Mapping rules (positive / negative per ID) ------------------------

TEST(LintMapping, CleanMappingHasNoDiagnostics)
{
    LintReport r = lint::lintMapping(models::gpt7b(), oneNode(),
                                     cleanMapping(), 64);
    EXPECT_TRUE(r.empty());
    EXPECT_TRUE(lint::isLegalMapping(models::gpt7b(), oneNode(),
                                     cleanMapping(), 64));
}

TEST(LintMapping, Par001TpMustDivideHeads)
{
    ParallelConfig par = cleanMapping();
    par.tensorParallel = 7;  // 32 heads, 8-wide node
    LintReport r = lint::lintMapping(models::gpt7b(), oneNode(), par,
                                     64);
    EXPECT_TRUE(r.has(lint::kRuleTpHeads));
    EXPECT_FALSE(lint::isLegalMapping(models::gpt7b(), oneNode(), par,
                                      64));
    // Aggregation: the device-count mismatch (7 != 8) is reported in
    // the same pass, not hidden behind the first failure.
    EXPECT_TRUE(r.has(lint::kRuleDeviceCount));
}

TEST(LintMapping, Par006TpMustDivideFfn)
{
    TransformerConfig model = models::gpt7b();
    model.ffnHidden = 16385;  // odd: heads still divide, FFN not
    ParallelConfig par = cleanMapping();
    LintReport r = lint::lintMapping(model, oneNode(), par, 64);
    EXPECT_TRUE(r.has(lint::kRuleTpFfn));
    EXPECT_FALSE(r.has(lint::kRuleTpHeads));
}

TEST(LintMapping, Par007DeviceCountMustMatchSystem)
{
    LintReport r = lint::lintMapping(models::gpt7b(),
                                     presets::dgxA100(2),
                                     cleanMapping(), 64);
    EXPECT_TRUE(r.has(lint::kRuleDeviceCount));

    ParallelConfig par = cleanMapping();
    par.dataParallel = 2;
    EXPECT_TRUE(lint::isLegalMapping(models::gpt7b(),
                                     presets::dgxA100(2), par, 64));
}

TEST(LintMapping, Par008TpMustStayWithinNode)
{
    ParallelConfig par;
    par.tensorParallel = 16;  // spans two 8-GPU nodes
    LintReport r = lint::lintMapping(models::gpt175b(),
                                     presets::dgxA100(2), par, 64);
    EXPECT_TRUE(r.has(lint::kRuleTpSpansNodes));
    EXPECT_FALSE(r.has(lint::kRuleTpHeads));  // 96 % 16 == 0
}

TEST(LintMapping, Sched009LayersMustDivideByStages)
{
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 5;  // 96 layers % 5 != 0
    LintReport r = lint::lintMapping(models::gpt175b(),
                                     presets::dgxA100(5), par, 64);
    EXPECT_TRUE(r.has(lint::kRuleLayersPerStage));

    par.pipelineParallel = 4;
    EXPECT_TRUE(lint::isLegalMapping(models::gpt175b(),
                                     presets::dgxA100(4), par, 64));
}

TEST(LintMapping, Sched010InterleaveNeedsInterleavedSchedule)
{
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 2;
    par.interleavedStages = 2;  // schedule left at GPipe
    LintReport r = lint::lintMapping(models::gpt175b(),
                                     presets::dgxA100(2), par, 64);
    EXPECT_TRUE(r.has(lint::kRuleInterleaveSchedule));

    par.schedule = PipelineSchedule::Interleaved1F1B;
    EXPECT_TRUE(lint::isLegalMapping(models::gpt175b(),
                                     presets::dgxA100(2), par, 64));
}

TEST(LintMapping, Par011ExpertParallelNeedsMoe)
{
    ParallelConfig par = cleanMapping();
    par.dataParallel = 1;
    par.tensorParallel = 4;
    par.expertParallel = 2;  // GPT-7B is dense; DP=1 not divisible
    System sys = oneNode();
    sys.devicesPerNode = 4;
    sys.numNodes = 1;
    LintReport r = lint::lintMapping(models::gpt7b(), sys, par, 64);
    EXPECT_TRUE(r.has(lint::kRuleExpertParallel));
    // Dense model AND DP % EP are two distinct violations.
    EXPECT_EQ(r.errorCount(), 2u);

    ParallelConfig moe;
    moe.dataParallel = 2;
    moe.tensorParallel = 4;
    moe.expertParallel = 2;
    EXPECT_TRUE(lint::isLegalMapping(models::mixtral8x7b(), oneNode(),
                                     moe, 64));
}

TEST(LintMapping, Par012BatchMustDivideByDp)
{
    ParallelConfig par;
    par.dataParallel = 2;
    par.tensorParallel = 4;
    LintReport r = lint::lintMapping(models::gpt7b(), oneNode(), par,
                                     63);
    EXPECT_TRUE(r.has(lint::kRuleBatchVsDp));
    EXPECT_FALSE(lint::lintMapping(models::gpt7b(), oneNode(), par, 64)
                     .has(lint::kRuleBatchVsDp));
}

TEST(LintMapping, Par013PerPipelineBatchMustDivideByMicrobatch)
{
    ParallelConfig par = cleanMapping();
    par.microbatchSize = 6;  // 64 % 6 != 0
    LintReport r = lint::lintMapping(models::gpt7b(), oneNode(), par,
                                     64);
    EXPECT_TRUE(r.has(lint::kRuleMicrobatchDivides));
    par.microbatchSize = 4;
    EXPECT_TRUE(lint::isLegalMapping(models::gpt7b(), oneNode(), par,
                                     64));
}

TEST(LintMapping, Par014TpNotDividingKvHeadsWarns)
{
    // Llama2-70B has 8 KV heads; TP=16 replicates them. The rule is
    // a warning: the mapping still runs, just wastefully.
    ParallelConfig par;
    par.tensorParallel = 16;
    LintReport r = lint::lintMapping(models::llama2_70b(),
                                     presets::dgxA100(2), par, 64);
    EXPECT_TRUE(r.has(lint::kRuleTpKvHeads));

    par.tensorParallel = 8;
    par.dataParallel = 2;
    LintReport ok = lint::lintMapping(models::llama2_70b(),
                                      presets::dgxA100(2), par, 64);
    EXPECT_FALSE(ok.has(lint::kRuleTpKvHeads));
}

TEST(LintMapping, Sched003FewMicrobatchesWarns)
{
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 2;
    LintReport r = lint::lintMapping(models::gpt175b(),
                                     presets::dgxA100(2), par, 1);
    EXPECT_TRUE(r.has(lint::kRuleFewMicrobatches));
    EXPECT_FALSE(r.hasErrors());  // warning: legal but bubble-bound
    // isLegal ignores warnings.
    EXPECT_TRUE(lint::isLegalMapping(models::gpt175b(),
                                     presets::dgxA100(2), par, 1));

    LintReport ok = lint::lintMapping(models::gpt175b(),
                                      presets::dgxA100(2), par, 8);
    EXPECT_FALSE(ok.has(lint::kRuleFewMicrobatches));
}

TEST(LintMapping, Cfg020NonPositiveDegreesGateEverythingElse)
{
    ParallelConfig par = cleanMapping();
    par.dataParallel = 0;
    par.microbatchSize = -2;
    LintReport r = lint::lintMapping(models::gpt7b(), oneNode(), par,
                                     64);
    EXPECT_TRUE(r.has(lint::kRuleMappingPositive));
    EXPECT_EQ(r.errorCount(), 2u);  // both bad fields, nothing else
    EXPECT_FALSE(r.has(lint::kRuleDeviceCount));
}

// ---- Training-level rules ----------------------------------------------

TEST(LintTraining, CleanTrainingConfigIsQuiet)
{
    LintReport r = lint::lintTraining(models::gpt7b(), oneNode(),
                                      cleanMapping(), 64);
    EXPECT_TRUE(r.empty());
}

TEST(LintTraining, Mem002FootprintOverflowsDevice)
{
    // GPT-175B on a single DGX node: ~2.8 TB of states on 8x 80 GiB.
    LintReport r = lint::lintTraining(models::gpt175b(), oneNode(),
                                      cleanMapping(), 64);
    EXPECT_TRUE(r.has(lint::kRuleTrainMemory));
    EXPECT_TRUE(r.hasErrors());

    LintReport ok = lint::lintTraining(models::gpt7b(), oneNode(),
                                       cleanMapping(), 64);
    EXPECT_FALSE(ok.has(lint::kRuleTrainMemory));
}

TEST(LintTraining, Prec005UnsupportedPrecision)
{
    TrainingOptions opts;
    opts.precision = Precision::FP8;  // A100 has no FP8 tensor cores
    LintReport r = lint::lintTraining(models::gpt7b(), oneNode(),
                                      cleanMapping(), 64, opts);
    EXPECT_TRUE(r.has(lint::kRulePrecisionSupport));

    opts.precision = Precision::FP16;
    LintReport ok = lint::lintTraining(models::gpt7b(), oneNode(),
                                       cleanMapping(), 64, opts);
    EXPECT_FALSE(ok.has(lint::kRulePrecisionSupport));
}

TEST(LintTraining, Seq016SequenceBeyondModelMaximumWarns)
{
    TrainingOptions opts;
    opts.seqLength = 4096;  // GPT-7B trained to 2048
    LintReport r = lint::lintTraining(models::gpt7b(), oneNode(),
                                      cleanMapping(), 64, opts);
    EXPECT_TRUE(r.has(lint::kRuleSequenceLength));

    opts.seqLength = 2048;
    LintReport ok = lint::lintTraining(models::gpt7b(), oneNode(),
                                       cleanMapping(), 64, opts);
    EXPECT_FALSE(ok.has(lint::kRuleSequenceLength));
}

TEST(LintTraining, Par021SequenceMustDivideByContextParallel)
{
    ParallelConfig par;
    par.contextParallel = 2;
    par.tensorParallel = 4;
    TrainingOptions opts;
    opts.seqLength = 2047;
    LintReport r = lint::lintTraining(models::gpt7b(), oneNode(), par,
                                      64, opts);
    EXPECT_TRUE(r.has(lint::kRuleSeqVsContextParallel));

    opts.seqLength = 2048;
    LintReport ok = lint::lintTraining(models::gpt7b(), oneNode(), par,
                                       64, opts);
    EXPECT_FALSE(ok.has(lint::kRuleSeqVsContextParallel));
}

TEST(LintTraining, Cfg024OverlapFractionsLieInZeroOne)
{
    TrainingOptions opts;
    opts.tpOverlapFraction = 3.0;
    opts.dpOverlapFraction = -0.5;
    LintReport r = lint::lintTraining(models::gpt7b(), oneNode(),
                                      cleanMapping(), 64, opts);
    EXPECT_EQ(r.errorCount(), 2u);  // one per fraction, nothing else
    EXPECT_TRUE(r.has(lint::kRuleOverlapFraction));

    opts.tpOverlapFraction = std::nan("");
    opts.dpOverlapFraction = 1.0;
    EXPECT_TRUE(lint::lintTraining(models::gpt7b(), oneNode(),
                                   cleanMapping(), 64, opts)
                    .has(lint::kRuleOverlapFraction));

    opts.tpOverlapFraction = 0.0;
    LintReport ok = lint::lintTraining(models::gpt7b(), oneNode(),
                                       cleanMapping(), 64, opts);
    EXPECT_FALSE(ok.has(lint::kRuleOverlapFraction));
}

// ---- Inference rules ---------------------------------------------------

TEST(LintInference, CleanInferenceConfigIsQuiet)
{
    InferenceOptions opts;
    LintReport r = lint::lintInference(models::llama2_7b(), oneNode(),
                                       opts);
    EXPECT_TRUE(r.empty());
}

TEST(LintInference, Mem015WeightsPlusKvOverflow)
{
    InferenceOptions opts;  // TP=1: 350 GB of weights on one A100
    LintReport r = lint::lintInference(models::gpt175b(), oneNode(),
                                       opts);
    EXPECT_TRUE(r.has(lint::kRuleInferMemory));

    LintReport ok = lint::lintInference(models::llama2_7b(), oneNode(),
                                        opts);
    EXPECT_FALSE(ok.has(lint::kRuleInferMemory));
}

TEST(LintInference, Prec017UnsupportedKvPrecisionWarns)
{
    InferenceOptions opts;
    opts.kvPrecision = Precision::FP8;  // A100: dequantize on read
    LintReport r = lint::lintInference(models::llama2_7b(), oneNode(),
                                       opts);
    EXPECT_TRUE(r.has(lint::kRuleKvPrecision));
    EXPECT_FALSE(r.hasErrors());

    opts.kvPrecision = Precision::FP16;
    LintReport ok = lint::lintInference(models::llama2_7b(), oneNode(),
                                        opts);
    EXPECT_FALSE(ok.has(lint::kRuleKvPrecision));
}

TEST(LintInference, Seq016ContextBeyondModelMaximumWarns)
{
    InferenceOptions opts;
    opts.promptLength = 4000;
    opts.generateLength = 200;  // 4200 > Llama2's 4096
    LintReport r = lint::lintInference(models::llama2_7b(), oneNode(),
                                       opts);
    EXPECT_TRUE(r.has(lint::kRuleSequenceLength));
}

TEST(LintInference, MappingRulesApplyToInferenceToo)
{
    InferenceOptions opts;
    opts.tensorParallel = 7;   // 32 heads
    opts.pipelineParallel = 3; // 32 layers
    LintReport r = lint::lintInferenceMapping(models::gpt7b(),
                                              oneNode(), opts);
    EXPECT_TRUE(r.has(lint::kRuleTpHeads));
    EXPECT_TRUE(r.has(lint::kRuleLayersPerStage));
    EXPECT_TRUE(r.has(lint::kRuleDeviceCount));  // 21 > 8 devices
}

// ---- Model / system structural rules -----------------------------------

TEST(LintModel, Cfg018AggregatesEveryViolation)
{
    TransformerConfig model = models::gpt7b();
    model.numLayers = 0;
    model.hiddenSize = 100;  // not divisible by 32 heads
    LintReport r = lint::lintModel(model);
    EXPECT_TRUE(r.has(lint::kRuleModelStructure));
    EXPECT_GE(r.errorCount(), 2u);

    EXPECT_TRUE(lint::lintModel(models::gpt7b()).empty());
}

TEST(LintSystem, Cfg019StructuralErrors)
{
    System sys = oneNode();
    sys.numNodes = 0;
    LintReport r = lint::lintSystem(sys);
    EXPECT_TRUE(r.has(lint::kRuleSystemStructure));

    EXPECT_TRUE(lint::lintSystem(oneNode()).empty());
}

TEST(LintSystem, Unit004SuspiciousLinkMagnitudeWarns)
{
    // The classic mistake: "bandwidth": 400 meaning 400 Gb/s, stored
    // as 400 bytes/s.
    System sys = oneNode();
    sys.interLink.bandwidth = 400.0;
    LintReport r = lint::lintSystem(sys);
    EXPECT_TRUE(r.has(lint::kRuleSuspiciousUnits));
    EXPECT_FALSE(r.hasErrors());

    // Written with the bit-rate helper it is plausible and quiet.
    sys.interLink.bandwidth = 400 * Gbps;
    EXPECT_TRUE(lint::lintSystem(sys).empty());
}

TEST(LintSystem, Unit004SuspiciousDramCapacityWarns)
{
    // 500 MiB is structurally valid (still larger than the caches)
    // but far below any HBM part — a missing GiB multiplier.
    System sys = oneNode();
    sys.device.mem[0].capacity = 500 * MiB;
    LintReport r = lint::lintSystem(sys);
    EXPECT_TRUE(r.has(lint::kRuleSuspiciousUnits));
    EXPECT_FALSE(r.hasErrors());

    // Too large is as suspicious as too small.
    System big = oneNode();
    big.device.mem[0].capacity = 500 * TB;
    EXPECT_TRUE(lint::lintSystem(big).has(lint::kRuleSuspiciousUnits));
}

// ---- Integration: legacy validate() carries the full report ------------

TEST(LintIntegration, ScenarioThrowsLintErrorWithAllDiagnostics)
{
    ParallelConfig par;
    par.tensorParallel = 7;
    par.pipelineParallel = 8;
    try {
        evaluateTraining(models::gpt175b(), presets::dgxA100(8), par, 64);
        FAIL() << "expected LintError";
    } catch (const LintError &e) {
        EXPECT_TRUE(e.report().has(lint::kRuleTpHeads));
        EXPECT_TRUE(e.report().has(lint::kRuleDeviceCount));
        EXPECT_GE(e.report().errorCount(), 2u);
    }
}

TEST(LintIntegration, DiagnosticsTableHasOneRowPerDiagnostic)
{
    ParallelConfig par = cleanMapping();
    par.tensorParallel = 7;
    LintReport r = lint::lintMapping(models::gpt7b(), oneNode(), par,
                                     64);
    Table t = lint::diagnosticsTable(r);
    EXPECT_EQ(t.rowCount(), r.diagnostics().size());
    EXPECT_EQ(t.columnCount(), 4u);
    EXPECT_EQ(t.at(0, 0), "error");
}

TEST(LintIntegration, IsLegalDeviceFiltersBrokenDevices)
{
    EXPECT_TRUE(lint::isLegalDevice(presets::a100_80gb()));
    Device broken = presets::a100_80gb();
    broken.mem.clear();
    EXPECT_FALSE(lint::isLegalDevice(broken));
}

// ---- Formatter edge cases ----------------------------------------------

TEST(Formatters, ZeroValues)
{
    EXPECT_EQ(formatBytes(0.0), "0.00 B");
    EXPECT_EQ(formatTime(0.0), "0.000 ns");
    EXPECT_EQ(formatFlops(0.0), "0.00 FLOPS");
    EXPECT_EQ(formatBandwidth(0.0), "0.00 B/s");
}

TEST(Formatters, NegativeValuesKeepTheirSign)
{
    EXPECT_EQ(formatBytes(-1.5 * GiB), "-1.50 GiB");
    EXPECT_EQ(formatTime(-2.5e-3), "-2.500 ms");
    EXPECT_EQ(formatFlops(-3.0 * TFLOPS), "-3.00 TFLOPS");
}

TEST(Formatters, VeryLargeValuesSaturateAtTheTopSuffix)
{
    EXPECT_EQ(formatBytes(2048.0 * TB), "1862.65 TiB");
    EXPECT_EQ(formatFlops(2.5e18), "2500.00 PFLOPS");
    EXPECT_EQ(formatBandwidth(5e15), "5000.00 TB/s");
    EXPECT_EQ(formatTime(90.0), "90.000 s");
}

} // namespace
} // namespace optimus
