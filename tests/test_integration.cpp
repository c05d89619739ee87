/**
 * @file
 * Cross-feature integration tests: combinations of parallelism,
 * recomputation, FlashAttention, ZeRO, MoE, precisions and devices
 * that exercise several modules at once, plus the roofline report.
 */

#include <gtest/gtest.h>

#include "core/optimus.h"
#include "roofline/report.h"

namespace optimus {
namespace {

TEST(Integration, EverythingOnGpt175b)
{
    // FlashAttention + ZeRO-1 + interleaved pipeline + SP + fp8,
    // all at once, on H100s.
    ParallelConfig par;
    par.dataParallel = 4;
    par.tensorParallel = 8;
    par.pipelineParallel = 4;
    par.sequenceParallel = true;
    par.schedule = PipelineSchedule::Interleaved1F1B;
    par.interleavedStages = 6;

    TrainingOptions opts;
    opts.precision = Precision::FP8;
    opts.recompute = Recompute::Selective;
    opts.flashAttention = true;
    opts.memory.zeroStage = 1;
    opts.dpOverlapFraction = 0.8;

    TrainingReport rep = evaluateTraining(
        models::gpt175b(), presets::dgxH100(16), par, 256, opts);

    EXPECT_GT(rep.timePerBatch, 0.0);
    EXPECT_GT(rep.mfu, 0.25);
    EXPECT_LT(rep.mfu, 0.75);
    EXPECT_LT(rep.memory.total(), 80 * GiB);
    EXPECT_NEAR(rep.timePerBatch,
                rep.time.compute() + rep.time.communication() +
                    rep.time.other(),
                1e-9);
}

TEST(Integration, FeatureCombinationsNeverHurtBaseline)
{
    // Each optimization alone must not slow down the baseline run.
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    par.sequenceParallel = true;
    System sys = presets::dgxA100(8);

    TrainingOptions base;
    base.recompute = Recompute::None;
    double t_base = evaluateTraining(models::gpt175b(), sys, par, 64,
                                     base)
                        .timePerBatch;

    TrainingOptions flash = base;
    flash.flashAttention = true;
    EXPECT_LE(evaluateTraining(models::gpt175b(), sys, par, 64, flash)
                  .timePerBatch,
              t_base * 1.001);
}

TEST(Integration, MoeWithFullStack)
{
    // Mixtral with EP + TP + PP + flash + selective recompute.
    ParallelConfig par;
    par.dataParallel = 8;
    par.tensorParallel = 4;
    par.pipelineParallel = 2;
    par.expertParallel = 8;
    par.sequenceParallel = true;

    TrainingOptions opts;
    opts.recompute = Recompute::Selective;
    opts.flashAttention = true;

    TrainingReport rep = evaluateTraining(
        models::mixtral8x7b(), presets::dgxA100(8), par, 128, opts);
    EXPECT_GT(rep.time.epComm, 0.0);
    EXPECT_GT(rep.time.tpComm, 0.0);
    EXPECT_GT(rep.time.bubble, 0.0);
    EXPECT_LT(rep.memory.total(), 80 * GiB);
}

TEST(Integration, ConfigFileDrivesFullEvaluation)
{
    // The JSON a user would put in a config file, end to end.
    JsonValue cfg = JsonValue::parse(R"({
        "model": {"preset": "mixtral-8x7b"},
        "system": {"preset": "dgx-h100", "numNodes": 8},
        "parallel": {"dataParallel": 16, "tensorParallel": 4,
                     "expertParallel": 8,
                     "sequenceParallel": true},
        "training": {"recompute": "selective",
                     "flashAttention": true, "zeroStage": 1}
    })");
    TransformerConfig model = config::modelFromJson(cfg.at("model"));
    System sys = config::systemFromJson(cfg.at("system"));
    ParallelConfig par = config::parallelFromJson(cfg.at("parallel"));
    TrainingOptions opts =
        config::trainingOptionsFromJson(cfg.at("training"));

    TrainingReport rep = evaluateTraining(model, sys, par, 256, opts);
    EXPECT_GT(rep.timePerBatch, 0.0);
    // Serialize the report and read a value back out.
    JsonValue out = config::toJson(rep);
    EXPECT_GT(out.at("time").at("epComm").asNumber(), 0.0);
}

TEST(Integration, ScenarioOnTpuWithBf16)
{
    ParallelConfig par;
    par.dataParallel = 2;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    TrainingOptions opts;
    opts.precision = Precision::BF16;
    TrainingReport rep = evaluateTraining(
        models::gpt175b(), presets::tpuV4Pod(2), par, 64, opts);
    EXPECT_GT(rep.timePerBatch, 0.0);
}

TEST(Integration, SpeculativePlusServingConsistency)
{
    // The serving step time at batch 1 and the speculative baseline
    // must describe the same quantity (one decode step).
    System sys = presets::dgxA100(1);
    ServingOptions sopts;
    sopts.tensorParallel = 2;
    sopts.promptLength = 300;
    sopts.generateLength = 200;
    ServingPoint pt = evaluateServingPoint(models::llama2_70b(), sys,
                                           sopts, 1);

    SpeculativeOptions opts;
    opts.tensorParallel = 2;
    opts.context = 400;  // serving evaluates at the mean context
    SpeculativeReport spec = evaluateSpeculative(
        models::llama2_70b(), models::llama2_7b(), sys, opts);
    double baseline_step = 1.0 / spec.baselineTokensPerSecond;
    EXPECT_NEAR(baseline_step, pt.decodeStepTime,
                pt.decodeStepTime * 0.05);
}

TEST(Integration, RooflineReportCoversLayer)
{
    Device dev = presets::a100_80gb();
    LayerGraphParams p;
    p.batch = 1;
    p.seq = 200;
    p.training = false;
    std::vector<Op> ops =
        layerForwardOps(models::llama2_13b(), p);
    std::vector<RooflinePoint> pts = rooflinePoints(dev, ops);
    ASSERT_EQ(pts.size(), ops.size());

    RooflineCeilings c = rooflineCeilings(dev, Precision::FP16);
    EXPECT_NEAR(c.ridgeIntensity, c.peakFlops / c.dramBandwidth,
                1e-9);
    for (const RooflinePoint &pt : pts) {
        // No point may beat the machine: achieved <= peak, and
        // memory-bound points respect the bandwidth ceiling.
        EXPECT_LE(pt.achieved, c.peakFlops * 1.001) << pt.name;
        if (pt.bound == "DRAM" && pt.intensity > 0.0) {
            EXPECT_LE(pt.achieved,
                      pt.intensity * c.dramBandwidth * 1.3)
                << pt.name;
        }
    }

    Table t = rooflineTable(dev, Precision::FP16, ops);
    EXPECT_EQ(t.rowCount(), ops.size());
    EXPECT_EQ(t.columnCount(), 6u);
}

TEST(Integration, CompositePrecisionSweep)
{
    // Throughput must be monotone in precision on B200 (more math
    // per second, fewer bytes per value).
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    System sys = presets::dgxB200(8);
    double prev = 1e30;
    for (Precision prec :
         {Precision::FP16, Precision::FP8, Precision::FP4}) {
        TrainingOptions opts;
        opts.precision = prec;
        double t = evaluateTraining(models::gpt175b(), sys, par, 64,
                                    opts)
                       .timePerBatch;
        EXPECT_LT(t, prev) << precisionName(prec);
        prev = t;
    }
}

} // namespace
} // namespace optimus
