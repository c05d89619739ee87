/**
 * @file
 * Tests for context parallelism (ring attention over the sequence).
 */

#include <gtest/gtest.h>

#include "hw/presets.h"
#include "lint/lint.h"
#include "memory/footprint.h"
#include "training/trainer.h"
#include "util/error.h"
#include "util/units.h"
#include "workload/graph.h"
#include "workload/presets.h"

namespace optimus {
namespace {

LayerGraphParams
cpParams(long long cp, long long seq = 8192)
{
    LayerGraphParams p;
    p.batch = 1;
    p.seq = seq;
    p.tensorParallel = 4;
    p.sequenceParallel = true;
    p.flashAttention = true;
    p.contextParallel = cp;
    return p;
}

TEST(ContextParallel, ShardsWorkButKeepsFullKvReads)
{
    TransformerConfig cfg = models::gpt7b();
    std::vector<Op> one = layerForwardOps(cfg, cpParams(1));
    std::vector<Op> four = layerForwardOps(cfg, cpParams(4));

    double flops1 = 0.0, flops4 = 0.0;
    for (const Op &op : one)
        flops1 += opFlops(op);
    for (const Op &op : four)
        flops4 += opFlops(op);
    // Per-device work shards ~4x (attention exactly, linears by
    // their token count).
    EXPECT_NEAR(flops4, flops1 / 4.0, flops1 * 0.01);

    // The fused attention still reads the FULL K/V set.
    auto fa = [](const std::vector<Op> &ops) {
        for (const Op &op : ops)
            if (op.kind == OpKind::FusedAttention)
                return op;
        throw ModelError("no fused attention op");
    };
    double q_share = 2.0 / 4.0;  // Q and O shard, K and V do not
    EXPECT_GT(fa(four).fusedDramBytes,
              fa(one).fusedDramBytes * q_share);
    EXPECT_NEAR(fa(four).fusedFlops, fa(one).fusedFlops / 4.0, 1.0);
}

TEST(ContextParallel, RequiresFlashAttention)
{
    // The rules live in lint; the gate in evaluateTraining enforces
    // them before any op is built.
    TransformerConfig cfg = models::gpt7b();
    System sys = presets::dgxA100(4);
    ParallelConfig par;
    par.contextParallel = 4;
    par.tensorParallel = 8;
    TrainingOptions opts;
    opts.seqLength = 8192;
    EXPECT_TRUE(lint::lintTraining(cfg, sys, par, 8, opts)
                    .has(lint::kRuleContextParallelFlash));
    try {
        evaluateTraining(cfg, sys, par, 8, opts);
        FAIL() << "expected LintError";
    } catch (const LintError &e) {
        EXPECT_TRUE(e.report().has(lint::kRuleContextParallelFlash));
    }

    // Sequence must divide by cp.
    opts.flashAttention = true;
    par.contextParallel = 3;
    par.dataParallel = 1;
    opts.seqLength = 8192;
    sys = presets::dgxA100(3);
    EXPECT_TRUE(lint::lintTraining(cfg, sys, par, 8, opts)
                    .has(lint::kRuleSeqVsContextParallel));
    EXPECT_THROW(evaluateTraining(cfg, sys, par, 8, opts), LintError);
}

TEST(ContextParallel, MultipliesDeviceCount)
{
    ParallelConfig par;
    par.dataParallel = 2;
    par.contextParallel = 4;
    par.tensorParallel = 4;
    par.pipelineParallel = 2;
    EXPECT_EQ(par.totalDevices(), 64);
}

TEST(ContextParallel, EnablesLongContextTraining)
{
    // GPT-7B at 32k context on 64 A100s: CP8 shards the activations
    // into range and pays a ring-exchange communication cost.
    TransformerConfig cfg = models::gpt7b();
    System sys = presets::dgxA100(8);

    ParallelConfig cp8;
    cp8.dataParallel = 2;
    cp8.contextParallel = 8;
    cp8.tensorParallel = 4;
    cp8.pipelineParallel = 1;

    TrainingOptions opts;
    opts.seqLength = 32768;
    opts.recompute = Recompute::Selective;
    opts.flashAttention = true;

    TrainingReport rep = evaluateTraining(cfg, sys, cp8, 16, opts);
    EXPECT_GT(rep.time.cpComm, 0.0);
    EXPECT_LT(rep.memory.total(), 80 * GiB);

    // The same budget without CP (DP instead) overflows.
    ParallelConfig no_cp = cp8;
    no_cp.contextParallel = 1;
    no_cp.dataParallel = 16;
    TrainingMemory mem = trainingMemoryPerDevice(cfg, no_cp, 16, opts);
    EXPECT_GT(mem.total(), 80 * GiB);
}

TEST(ContextParallel, SeqMustDivide)
{
    TransformerConfig cfg = models::gpt7b();
    System sys = presets::dgxA100(4);
    ParallelConfig par;
    par.contextParallel = 4;
    par.tensorParallel = 8;
    TrainingOptions opts;
    opts.seqLength = 2050;  // not divisible by 4
    opts.flashAttention = true;
    EXPECT_THROW(evaluateTraining(cfg, sys, par, 8, opts),
                 ConfigError);
}

} // namespace
} // namespace optimus
