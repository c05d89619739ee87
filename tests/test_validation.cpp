/**
 * @file
 * Integration tests pinning the paper reproduction: the validation
 * tables (Tables 1 and 2) must stay within the paper's own error
 * envelope, and the case-study figures must keep their shapes.
 * These tests guard the calibration (DESIGN.md, "Calibration knobs").
 */

#include <gtest/gtest.h>

#include "core/optimus.h"

namespace optimus {
namespace {

// ---- Table 1: training validation -----------------------------------

struct TrainRow
{
    TransformerConfig model;
    int gpus;
    long long batch, dp, tp, pp;
    bool sp;
    Recompute recompute;
    double t_ref;
};

std::vector<TrainRow>
table1()
{
    return {
        {models::gpt22b(), 8, 4, 1, 8, 1, false, Recompute::Full, 1.4},
        {models::gpt175b(), 64, 64, 1, 8, 8, false, Recompute::Full,
         18.1},
        {models::gpt530b(), 280, 280, 1, 8, 35, false, Recompute::Full,
         49.1},
        {models::gpt1008b(), 512, 512, 1, 8, 64, false, Recompute::Full,
         94.4},
        {models::gpt22b(), 8, 4, 1, 8, 1, true, Recompute::Selective,
         1.1},
        {models::gpt175b(), 64, 64, 1, 8, 8, true, Recompute::Selective,
         13.8},
        {models::gpt530b(), 280, 280, 1, 8, 35, true,
         Recompute::Selective, 37.8},
        {models::gpt1008b(), 512, 512, 1, 8, 64, true,
         Recompute::Selective, 71.5},
        {models::gpt310b(), 1920, 2160, 15, 8, 16, false,
         Recompute::Full, 37.6},
        {models::gpt530b(), 2520, 2520, 9, 8, 35, false,
         Recompute::Full, 54.2},
        {models::gpt1008b(), 3072, 3072, 6, 8, 64, false,
         Recompute::Full, 102.4},
    };
}

double
predictTraining(const TrainRow &row)
{
    System sys = presets::dgxA100(row.gpus / 8);
    ParallelConfig par;
    par.dataParallel = row.dp;
    par.tensorParallel = row.tp;
    par.pipelineParallel = row.pp;
    par.sequenceParallel = row.sp;
    TrainingOptions opts;
    opts.recompute = row.recompute;
    return evaluateTraining(row.model, sys, par, row.batch, opts)
        .timePerBatch;
}

TEST(Table1, EveryRowWithinPaperEnvelope)
{
    // The paper reports relative errors "mostly well below 10%";
    // allow 12% per row.
    for (const TrainRow &row : table1()) {
        double pred = predictTraining(row);
        EXPECT_LT(relativeErrorPct(pred, row.t_ref), 12.0)
            << row.model.name << " " << recomputeName(row.recompute);
    }
}

TEST(Table1, MeanErrorBelowSixPercent)
{
    double sum = 0.0;
    for (const TrainRow &row : table1())
        sum += relativeErrorPct(predictTraining(row), row.t_ref);
    EXPECT_LT(sum / table1().size(), 6.0);
}

TEST(Table1, SelectiveIsFasterThanFull)
{
    // Paper's SP+selective rows beat the TP/PP-only full rows.
    auto rows = table1();
    EXPECT_LT(predictTraining(rows[5]), predictTraining(rows[1]));
    EXPECT_LT(predictTraining(rows[7]), predictTraining(rows[3]));
}

// ---- Table 2: inference validation -----------------------------------

struct InferRow
{
    TransformerConfig model;
    int tp;
    double a100_ms, h100_ms;
};

std::vector<InferRow>
table2()
{
    return {
        {models::llama2_70b(), 8, 4735, 3202},
        {models::llama2_70b(), 4, 6403, 4116},
        {models::llama2_70b(), 2, 10500, 6267},
        {models::llama2_13b(), 8, 1693, 1201},
        {models::llama2_13b(), 4, 1894, 1431},
        {models::llama2_13b(), 2, 2499, 1717},
        {models::llama2_13b(), 1, 3884, 2396},
        {models::llama2_7b(), 8, 1187, 828},
        {models::llama2_7b(), 4, 1280, 924},
        {models::llama2_7b(), 2, 1544, 1143},
        {models::llama2_7b(), 1, 2190, 1440},
    };
}

double
predictInference(const TransformerConfig &model, const System &sys,
                 int tp)
{
    InferenceOptions opts;
    opts.tensorParallel = tp;
    return evaluateInference(model, sys, opts).totalLatency * 1e3;
}

TEST(Table2, EveryRowWithinPaperEnvelope)
{
    // The paper matches NVIDIA's numbers within 13%; allow 15%.
    System a100 = presets::dgxA100(1);
    System h100 = presets::dgxH100(1);
    for (const InferRow &row : table2()) {
        EXPECT_LT(relativeErrorPct(
                      predictInference(row.model, a100, row.tp),
                      row.a100_ms),
                  15.0)
            << row.model.name << " tp" << row.tp << " A100";
        EXPECT_LT(relativeErrorPct(
                      predictInference(row.model, h100, row.tp),
                      row.h100_ms),
                  15.0)
            << row.model.name << " tp" << row.tp << " H100";
    }
}

TEST(Table2, MeanErrorBelowEightPercent)
{
    System a100 = presets::dgxA100(1);
    System h100 = presets::dgxH100(1);
    double sum = 0.0;
    for (const InferRow &row : table2()) {
        sum += relativeErrorPct(
            predictInference(row.model, a100, row.tp), row.a100_ms);
        sum += relativeErrorPct(
            predictInference(row.model, h100, row.tp), row.h100_ms);
    }
    EXPECT_LT(sum / (2.0 * table2().size()), 8.0);
}

TEST(Table2, InferenceScalesPoorlyWithGpus)
{
    // Paper Sec. 4.3: "inference scales poorly with the number of
    // GPUs": 8 GPUs give well under 4x over 1 GPU.
    System a100 = presets::dgxA100(1);
    double t1 = predictInference(models::llama2_13b(), a100, 1);
    double t8 = predictInference(models::llama2_13b(), a100, 8);
    EXPECT_GT(t1 / t8, 1.5);
    EXPECT_LT(t1 / t8, 4.0);
}

// ---- Figure shapes ----------------------------------------------------

TEST(Fig5Shape, GenerationalSpeedups)
{
    auto throughput = [](const System &sys, Precision prec,
                         long long batch) {
        ParallelConfig par;
        par.dataParallel = 128;
        par.tensorParallel = 8;
        par.pipelineParallel = 8;
        par.sequenceParallel = true;
        TrainingOptions opts;
        opts.precision = prec;
        opts.recompute = Recompute::Selective;
        TrainingReport rep = evaluateTraining(
            models::gpt175b(), sys, par, batch, opts);
        return double(batch) / rep.timePerBatch;
    };

    double a100 = throughput(presets::dgxA100(1024), Precision::FP16,
                             1024);
    double h100 = throughput(presets::dgxH100(1024), Precision::FP8,
                             1024);
    double b200nvs = throughput(presets::dgxB200Nvs(1024),
                                Precision::FP4, 1024);
    double b200l = throughput(presets::dgxB200Nvs(1024),
                              Precision::FP4, 4096);

    // Paper: H100-NDR ~4x, B200-NVS ~14x, overall trend ~35x for the
    // large-batch point. Generous envelopes on the shape.
    EXPECT_GT(h100 / a100, 2.5);
    EXPECT_LT(h100 / a100, 6.5);
    EXPECT_GT(b200nvs / a100, 9.0);
    EXPECT_LT(b200nvs / a100, 22.0);
    EXPECT_GT(b200l / a100, 15.0);
}

TEST(Fig6Shape, NodeScalingSaturates)
{
    auto time_at = [](const char *node, const DramTech &d) {
        TechConfig tech;
        tech.node = logicNode(node);
        tech.dram = d;
        DseOptions dse;
        dse.gridSteps = 3;
        dse.refineRounds = 8;
        return optimizeAllocation(
                   tech,
                   [&](const Device &dev) {
                       System sys = makeSystem(dev, 8, 128,
                                               presets::nvlink4(),
                                               nettech::ndrX8());
                       ParallelConfig par;
                       par.dataParallel = 64;
                       par.tensorParallel = 4;
                       par.pipelineParallel = 4;
                       par.sequenceParallel = true;
                       par.schedule =
                           PipelineSchedule::Interleaved1F1B;
                       par.interleavedStages = 8;
                       TrainingOptions opts;
                       opts.recompute = Recompute::Selective;
                       return evaluateTraining(models::gpt7b(), sys,
                                               par, 512, opts)
                           .timePerBatch;
                   },
                   dse)
            .objective;
    };

    DramTech hbm2 = dram::hbm2();
    double n12 = time_at("N12", hbm2);
    double n5 = time_at("N5", hbm2);
    double n2 = time_at("N2", hbm2);
    double n1 = time_at("N1", hbm2);

    // Steep early gains, saturation at advanced nodes.
    EXPECT_GT(n12 / n5, 1.5);
    EXPECT_LT(n2 / n1, 1.05);

    // Memory technology helps where the node is advanced.
    double n1_hbm2e = time_at("N1", dram::hbm2e());
    EXPECT_LT(n1_hbm2e, n1 * 0.95);
}

TEST(Fig9Shape, DramScalingSaturatesAtL2)
{
    Device a100 = presets::a100_80gb();
    auto latency = [&](const DramTech &d) {
        Device dev = presets::withDram(a100, d.name, d.bandwidth,
                                       d.capacity);
        System sys = makeSystem(dev, 8, 1, presets::nvlink3(),
                                presets::ndrInfiniBand());
        InferenceOptions opts;
        opts.tensorParallel = 2;
        return evaluateInference(models::llama2_13b(), sys, opts)
            .totalLatency;
    };

    double gddr6 = latency(dram::gddr6());
    double hbm2e = latency(dram::hbm2e());
    double hbm3e = latency(dram::hbm3e());
    double hbmx = latency(dram::hbmx());

    // Early scaling is near-linear in bandwidth (3.2x bw -> >2x
    // gain); beyond HBM3E it flattens (L2-bound).
    EXPECT_GT(gddr6 / hbm2e, 2.0);
    EXPECT_LT(hbm3e / hbmx, 1.25);
}

TEST(Fig7Shape, MemoryBoundednessGrowsWithNodeScaling)
{
    // Evaluate one GPT-7B layer's GEMMs on DSE devices at N7 vs N1
    // with HBM2: the DRAM-bound share of GEMM time must grow.
    auto dram_share = [](const char *node) {
        TechConfig tech;
        tech.node = logicNode(node);
        tech.dram = dram::hbm2();
        Device dev = buildDevice(tech, {});
        LayerGraphParams gp;
        gp.batch = 1;
        gp.seq = 2048;
        gp.tensorParallel = 4;
        gp.sequenceParallel = true;
        double dram_t = 0.0, total = 0.0;
        for (const Op &op : layerForwardOps(models::gpt7b(), gp)) {
            if (op.kind != OpKind::Gemm)
                continue;
            KernelEstimate est = evaluateOp(dev, op);
            total += est.time;
            if (est.dramBound())
                dram_t += est.time;
        }
        return dram_t / total;
    };
    EXPECT_GT(dram_share("N1"), dram_share("N7"));
}

} // namespace
} // namespace optimus
