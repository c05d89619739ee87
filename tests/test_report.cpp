/**
 * @file
 * Tests for the run ledger & diff engine: the builders fill every
 * record kind, RunRecord JSON round trips losslessly, a record diffed
 * against itself is empty, a perturbed kernel is attributed to the
 * exact kernel and component, the regression-sentinel exit code
 * honors the tolerance, and structural drift (bound flips, one-sided
 * kernels, fingerprint mismatches) is never excused by tolerance.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "dse/search.h"
#include "hw/presets.h"
#include "planner/planner.h"
#include "report/diff.h"
#include "report/record.h"
#include "report/version.h"
#include "roofline/gemm.h"
#include "tech/dram.h"
#include "tech/logic_node.h"
#include "trace/trace.h"
#include "training/trainer.h"
#include "util/error.h"
#include "util/json.h"
#include "workload/presets.h"

namespace optimus {
namespace {

report::RunRecord
smallTrainingRecord()
{
    ParallelConfig par;
    par.dataParallel = 2;
    par.tensorParallel = 4;
    par.pipelineParallel = 2;
    par.sequenceParallel = true;
    TrainingOptions opts;
    opts.recompute = Recompute::Selective;
    return report::recordTraining(models::gpt7b(), presets::dgxA100(2),
                                  par, 32, opts, "unit-test");
}

TEST(RunRecord, BuilderFillsIdentityAndContent)
{
    report::RunRecord rec = smallTrainingRecord();
    EXPECT_EQ(rec.schemaVersion, report::kSchemaVersion);
    EXPECT_EQ(rec.toolVersion, report::toolVersion());
    EXPECT_EQ(rec.gitSha, report::gitSha());
    EXPECT_EQ(rec.kind, "training");
    EXPECT_EQ(rec.label, "unit-test");
    EXPECT_EQ(rec.fingerprint, report::fingerprintJson(rec.config));
    EXPECT_EQ(rec.fingerprint.size(), 16u);
    EXPECT_TRUE(rec.hasMetric("time/total"));
    EXPECT_TRUE(rec.hasMetric("mfu"));
    EXPECT_GT(rec.metric("time/total"), 0.0);
    EXPECT_FALSE(rec.kernels.empty());
    for (const report::KernelStat &k : rec.kernels) {
        EXPECT_FALSE(k.key.empty());
        EXPECT_GT(k.count, 0);
        EXPECT_FALSE(k.bound.empty());
    }
}

TEST(RunRecord, PlannerAndDseRecordsCopyCounters)
{
    // The planner and DSE records carry metrics and the counters of
    // their search, and no kernel rows.
    TrainingPlannerOptions popts;
    popts.keep = 2;
    popts.threads = 1;
    const System sys = presets::dgxA100(1);
    report::RunRecord plan =
        report::recordPlanner(models::gpt7b(), sys, 16, popts);
    EXPECT_EQ(plan.kind, "planner");
    EXPECT_GT(plan.metric("plans/found"), 0.0);
    EXPECT_GT(plan.metric("best/time-per-batch"), 0.0);
    EXPECT_TRUE(plan.kernels.empty());
    // The run's training options and every search-space list are
    // part of the fingerprint.
    TrainingPlannerOptions zero = popts;
    zero.zeroStages = {0, 1};
    TrainingPlannerOptions micro = popts;
    micro.microbatchSizes = {1, 2};
    TrainingPlannerOptions bf16 = popts;
    bf16.training.precision = Precision::BF16;
    for (const TrainingPlannerOptions &other : {zero, micro, bf16})
        EXPECT_NE(report::recordPlanner(models::gpt7b(), sys, 16, other)
                      .fingerprint,
                  plan.fingerprint);
    // The sweep sets recompute and the ZeRO stage per candidate, so
    // the run's own values are not.
    TrainingPlannerOptions recompute = popts;
    recompute.training.recompute = Recompute::None;
    EXPECT_EQ(report::recordPlanner(models::gpt7b(), sys, 16, recompute)
                  .fingerprint,
              plan.fingerprint);
    TraceSession planner_session;
    popts.trace = &planner_session;
    planTraining(models::gpt7b(), sys, 16, popts);
    EXPECT_GT(planner_session.counter("planner/plans-evaluated"), 0.0);
    EXPECT_EQ(plan.counters, planner_session.counters());

    TechConfig tech;
    tech.node = logicNode("N5");
    tech.dram = dram::hbm3_26();
    DseOptions dopts;
    dopts.gridSteps = 2;
    dopts.refineRounds = 1;
    dopts.threads = 1;
    auto objective = [](const Device &dev) {
        return estimateGemm(dev, {4096, 4096, 4096, Precision::FP16})
            .time;
    };
    report::RunRecord dse = report::recordDse(
        tech, objective, dopts, JsonValue::string("gemm"));
    EXPECT_EQ(dse.kind, "dse");
    EXPECT_GT(dse.metric("objective"), 0.0);
    EXPECT_GT(dse.metric("evaluations"), 0.0);
    EXPECT_TRUE(dse.kernels.empty());
    EXPECT_EQ(dse.counters.at("dse/evaluations"),
              dse.metric("evaluations"));
    EXPECT_EQ(dse.counters.at("dse/best-objective"),
              dse.metric("objective"));
    // Two DRAMs of one name are told apart by their figures.
    TechConfig h100_hbm3 = tech;
    h100_hbm3.dram = dram::hbm3();
    ASSERT_EQ(h100_hbm3.dram.name, tech.dram.name);
    EXPECT_NE(report::recordDse(h100_hbm3, objective, dopts,
                                JsonValue::string("gemm"))
                  .fingerprint,
              dse.fingerprint);
}

TEST(RunRecord, JsonRoundTripIsLossless)
{
    report::RunRecord rec = smallTrainingRecord();
    rec.setAttr("note", "quote \" comma , newline \n done");
    rec.validation.push_back({"row/one", 1.25, 1.2500001});

    // Serialize, re-parse the dumped text (the on-disk path), parse
    // back — every field must compare exactly, doubles included.
    JsonValue j = JsonValue::parse(report::toJson(rec).dump(2));
    report::RunRecord back = report::recordFromJson(j);

    EXPECT_EQ(back.schemaVersion, rec.schemaVersion);
    EXPECT_EQ(back.toolVersion, rec.toolVersion);
    EXPECT_EQ(back.gitSha, rec.gitSha);
    EXPECT_EQ(back.kind, rec.kind);
    EXPECT_EQ(back.label, rec.label);
    EXPECT_EQ(back.fingerprint, rec.fingerprint);
    EXPECT_EQ(back.threads, rec.threads);
    EXPECT_EQ(back.config.dump(), rec.config.dump());

    ASSERT_EQ(back.metrics.size(), rec.metrics.size());
    for (size_t i = 0; i < rec.metrics.size(); ++i) {
        EXPECT_EQ(back.metrics[i].first, rec.metrics[i].first);
        EXPECT_EQ(back.metrics[i].second, rec.metrics[i].second)
            << rec.metrics[i].first;
    }
    ASSERT_EQ(back.kernels.size(), rec.kernels.size());
    for (size_t i = 0; i < rec.kernels.size(); ++i) {
        EXPECT_EQ(back.kernels[i].key, rec.kernels[i].key);
        EXPECT_EQ(back.kernels[i].count, rec.kernels[i].count);
        EXPECT_EQ(back.kernels[i].time, rec.kernels[i].time);
        EXPECT_EQ(back.kernels[i].flops, rec.kernels[i].flops);
        EXPECT_EQ(back.kernels[i].dramBytes, rec.kernels[i].dramBytes);
        EXPECT_EQ(back.kernels[i].bound, rec.kernels[i].bound);
    }
    EXPECT_EQ(back.counters, rec.counters);
    ASSERT_EQ(back.validation.size(), rec.validation.size());
    EXPECT_EQ(back.validation.back().name, "row/one");
    EXPECT_EQ(back.validation.back().predicted, 1.2500001);
    EXPECT_EQ(back.attrs, rec.attrs);

    // The loss-free contract is what makes self-diff exact.
    report::RunDiff diff = report::diffRuns(rec, back);
    EXPECT_TRUE(diff.empty());
}

TEST(RunRecord, NonFiniteNumbersSurviveTheFile)
{
    // JSON spells infinities and NaN null; they read back as NaN and
    // diff as unchanged against any other non-finite value.
    report::RunRecord rec = smallTrainingRecord();
    rec.counters["probe/inf"] = std::numeric_limits<double>::infinity();
    rec.metrics.emplace_back("probe/nan",
                             std::numeric_limits<double>::quiet_NaN());
    const std::string path =
        ::testing::TempDir() + "optimus_nonfinite_run.json";
    report::writeRunRecord(path, rec);
    report::RunRecord back = report::loadRunRecord(path);
    std::remove(path.c_str());

    EXPECT_TRUE(std::isnan(back.counters.at("probe/inf")));
    EXPECT_EQ(report::checkExitCode(report::diffRuns(back, back)), 0);
    report::RunDiff diff = report::diffRuns(rec, back);
    EXPECT_TRUE(diff.empty());
    EXPECT_EQ(report::checkExitCode(diff), 0);
}

TEST(RunDiff, SelfDiffIsEmptyAndClean)
{
    report::RunRecord rec = smallTrainingRecord();
    report::RunDiff diff = report::diffRuns(rec, rec);
    EXPECT_TRUE(diff.empty());
    EXPECT_FALSE(diff.drifted());
    EXPECT_EQ(report::checkExitCode(diff), 0);
}

TEST(RunDiff, PerturbedKernelIsAttributedExactly)
{
    report::RunRecord a = smallTrainingRecord();
    report::RunRecord b = a;
    ASSERT_GT(b.kernels.size(), 2u);
    const std::string victim = b.kernels[2].key;
    b.kernels[2].time *= 1.01;  // +1% with identical work recorded

    report::RunDiff diff = report::diffRuns(a, b);  // tol 0.5%
    ASSERT_EQ(diff.kernels.size(), 1u);
    EXPECT_EQ(diff.kernels[0].key, victim);
    EXPECT_NEAR(diff.kernels[0].timeDeltaPct(), 1.0, 1e-6);
    EXPECT_EQ(diff.kernels[0].component(), "throughput");
    EXPECT_TRUE(diff.kernels[0].beyondTolerance);
    EXPECT_TRUE(diff.drifted());
    EXPECT_EQ(report::checkExitCode(diff), 1);
}

TEST(RunDiff, ExitCodeHonorsTolerance)
{
    report::RunRecord a = smallTrainingRecord();
    report::RunRecord b = a;
    b.kernels[0].time *= 1.01;

    report::DiffOptions loose;
    loose.tolPct = 5.0;
    report::RunDiff ok = report::diffRuns(a, b, loose);
    EXPECT_FALSE(ok.drifted());
    EXPECT_EQ(report::checkExitCode(ok), 0);
    // The change is still *reported*, just not gated.
    ASSERT_EQ(ok.kernels.size(), 1u);
    EXPECT_FALSE(ok.kernels[0].beyondTolerance);

    report::DiffOptions tight;
    tight.tolPct = 0.1;
    EXPECT_EQ(report::checkExitCode(report::diffRuns(a, b, tight)), 1);
}

TEST(RunDiff, ComponentAttributionTracksWork)
{
    report::RunRecord a = smallTrainingRecord();

    report::RunRecord flops = a;
    flops.kernels[0].flops *= 2.0;
    flops.kernels[0].time *= 2.0;
    report::RunDiff d1 = report::diffRuns(a, flops);
    ASSERT_FALSE(d1.kernels.empty());
    EXPECT_EQ(d1.kernels[0].component(), "flops");

    report::RunRecord bytes = a;
    bytes.kernels[0].dramBytes *= 1.5;
    report::RunDiff d2 = report::diffRuns(a, bytes);
    ASSERT_FALSE(d2.kernels.empty());
    EXPECT_EQ(d2.kernels[0].component(), "bytes");
}

TEST(RunDiff, BoundFlipAlwaysDrifts)
{
    report::RunRecord a = smallTrainingRecord();
    report::RunRecord b = a;
    b.kernels[0].bound =
        (a.kernels[0].bound == "DRAM") ? "compute" : "DRAM";

    report::DiffOptions loose;
    loose.tolPct = 1e9;  // no numeric tolerance can excuse a flip
    report::RunDiff diff = report::diffRuns(a, b, loose);
    ASSERT_EQ(diff.kernels.size(), 1u);
    EXPECT_TRUE(diff.kernels[0].boundFlip);
    EXPECT_EQ(diff.kernels[0].component(), "bound");
    EXPECT_TRUE(diff.drifted());
}

TEST(RunDiff, OneSidedKernelAlwaysDrifts)
{
    report::RunRecord a = smallTrainingRecord();
    report::RunRecord b = a;
    report::KernelStat dropped = b.kernels.back();
    b.kernels.pop_back();

    report::DiffOptions loose;
    loose.tolPct = 1e9;
    report::RunDiff diff = report::diffRuns(a, b, loose);
    ASSERT_EQ(diff.kernels.size(), 1u);
    EXPECT_EQ(diff.kernels[0].key, dropped.key);
    EXPECT_TRUE(diff.kernels[0].onlyA);
    EXPECT_TRUE(diff.drifted());
}

TEST(RunDiff, FingerprintMismatchMakesRecordsIncomparable)
{
    report::RunRecord a = smallTrainingRecord();
    report::RunRecord b = a;
    b.fingerprint = "0000000000000000";

    report::RunDiff diff = report::diffRuns(a, b);
    EXPECT_FALSE(diff.comparable);
    EXPECT_TRUE(diff.drifted());
    EXPECT_EQ(report::checkExitCode(diff), 1);
}

TEST(RunDiff, ValidationPredictionGatesReferenceDoesNot)
{
    report::RunRecord a = smallTrainingRecord();
    a.validation.push_back({"table/row", 10.0, 9.8});
    report::RunRecord b = a;
    b.validation[0].predicted = 10.3;  // ~5% move in the prediction

    report::RunDiff diff = report::diffRuns(a, b);
    ASSERT_EQ(diff.validation.size(), 1u);
    EXPECT_EQ(diff.validation[0].key, "table/row");
    EXPECT_TRUE(diff.validation[0].beyondTolerance);
    EXPECT_TRUE(diff.drifted());
}

TEST(RunDiff, CountersNeverGate)
{
    report::RunRecord a = smallTrainingRecord();
    report::RunRecord b = a;
    b.counters["tile-cache/hits"] += 1000.0;
    b.counters["exec/threads"] = 8.0;

    report::RunDiff diff = report::diffRuns(a, b);
    EXPECT_FALSE(diff.counters.empty());
    EXPECT_FALSE(diff.empty());
    EXPECT_FALSE(diff.drifted()) << "counter churn must not gate CI";
    EXPECT_EQ(report::checkExitCode(diff), 0);
}

TEST(RunRecord, FingerprintIsStableAndSensitive)
{
    JsonValue cfg = JsonValue::object();
    cfg.set("model", JsonValue::string("gpt-7b"));
    cfg.set("batch", JsonValue::number(32));
    std::string fp = report::fingerprintJson(cfg);
    EXPECT_EQ(fp, report::fingerprintJson(cfg));

    cfg.set("batch", JsonValue::number(64));
    EXPECT_NE(fp, report::fingerprintJson(cfg));
}

TEST(RunRecord, RejectsNewerSchema)
{
    report::RunRecord rec = smallTrainingRecord();
    JsonValue j = report::toJson(rec);
    j.set("schema_version",
          JsonValue::number(double(report::kSchemaVersion + 1)));
    EXPECT_THROW(report::recordFromJson(j), ConfigError);
}

TEST(ReportVersion, VersionLineCarriesIdentity)
{
    std::string line = report::versionLine();
    EXPECT_NE(line.find(report::toolVersion()), std::string::npos);
    EXPECT_NE(line.find("schema 1"), std::string::npos);
    EXPECT_NE(line.find(report::gitSha()), std::string::npos);
}

TEST(RunDiff, TextReportNamesKernelAndDecomposition)
{
    report::RunRecord a = smallTrainingRecord();
    report::RunRecord b = a;
    b.kernels[1].time *= 1.02;
    b.setMetric("time/total", a.metric("time/total") * 1.02);

    report::DiffOptions opts;
    report::RunDiff diff = report::diffRuns(a, b, opts);
    std::string text = report::diffText(diff, a, b, opts);
    EXPECT_NE(text.find(b.kernels[1].key), std::string::npos);
    EXPECT_NE(text.find("time/total"), std::string::npos);
    EXPECT_NE(text.find("DRIFT"), std::string::npos);
}

} // namespace
} // namespace optimus
