/**
 * @file
 * Lowering of a training configuration onto the kernel-plan IR.
 *
 * Step order is load-bearing: it fixes the breakdown-field summation
 * order (so the fold reproduces the historical TrainingBreakdown
 * numbers) and the busy-time prefix the pipeline-bubble step scales.
 *
 * The lowering has two parts. The compute part (lowerTrainingCompute)
 * builds the op-list steps, which depend only on the compute class;
 * the mapping part (lowerTrainingMapping) stamps the candidate's
 * repeat counts on them and appends every communication and
 * synthetic step. The training planner prices each compute class
 * once and runs only the mapping part per candidate.
 */

#include "plan/plan.h"

#include <algorithm>

#include "lint/lint.h"
#include "memory/footprint.h"
#include "parallel/pipeline.h"
#include "workload/activation.h"

namespace optimus {
namespace plan {

std::vector<PlanStep>
lowerTrainingCompute(const TransformerConfig &cfg, const ParallelConfig &par,
                     const TrainingOptions &opts)
{
    const long long tp = par.tensorParallel;
    std::vector<PlanStep> steps;

    LayerGraphParams gp;
    gp.batch = par.microbatchSize;
    gp.seq = opts.seqLength;
    gp.tensorParallel = tp;
    gp.sequenceParallel = par.sequenceParallel;
    gp.precision = opts.precision;
    gp.training = true;
    gp.flashAttention = opts.flashAttention;
    gp.expertParallel = par.expertParallel;
    gp.contextParallel = par.contextParallel;

    std::vector<Op> fwd_ops = layerForwardOps(cfg, gp);
    std::vector<Op> bwd_ops = layerBackwardOps(cfg, gp);

    ActivationParams ap;
    ap.microbatch = par.microbatchSize;
    ap.seq = opts.seqLength;
    ap.tensorParallel = tp;
    ap.sequenceParallel = par.sequenceParallel;
    ap.flashAttention = opts.flashAttention;
    const double recompute_frac =
        recomputeForwardFraction(cfg, ap, opts.recompute);

    // ---- Per-(microbatch, layer) compute ----------------------------
    // Repeat counts stay 1 here: the mapping part stamps them.
    {
        PlanStep s;
        s.kind = StepKind::Compute;
        s.lane = "stage0/fwd";
        s.name = "layer-fwd";
        s.category = "forward";
        s.phase = "train";
        s.coordMicrobatch = s.coordLayer = true;
        s.detailLane = "kernels/fwd";
        s.parts.push_back({"layer-fwd", fwd_ops, 1.0});
        steps.push_back(std::move(s));
    }
    {
        PlanStep s;
        s.kind = StepKind::Compute;
        s.lane = "stage0/bwd";
        s.name = "layer-bwd";
        s.category = "backward";
        s.phase = "train";
        s.coordMicrobatch = s.coordLayer = true;
        s.detailLane = "kernels/bwd";
        s.parts.push_back({"layer-bwd", std::move(bwd_ops), 1.0});
        steps.push_back(std::move(s));
    }
    if (recompute_frac > 0.0) {
        PlanStep s;
        s.kind = StepKind::Compute;
        s.lane = "stage0/recompute";
        s.name = "layer-recompute";
        s.category = "recompute";
        s.phase = "train";
        s.coordMicrobatch = s.coordLayer = true;
        s.parts.push_back({"layer-fwd", std::move(fwd_ops), recompute_frac});
        steps.push_back(std::move(s));
    }

    // ---- Embedding + LM head (worst stage carries both) -------------
    {
        const long long mb_tokens = par.microbatchSize * opts.seqLength;
        Op embed;
        embed.name = "embedding";
        embed.kind = OpKind::Stream;
        embed.streamBytes = 2.0 * double(mb_tokens) * cfg.hiddenSize *
                            activationBytes(opts.precision);
        embed.streamFlops = 0.0;
        embed.streamPrecision = opts.precision;

        PlanStep s;
        s.kind = StepKind::Compute;
        s.lane = "stage0/fwd";
        s.name = "embed+head";
        s.category = "embedding";
        s.phase = "train";
        s.coordMicrobatch = true;
        // Forward + backward (2x) for the head GEMM; embedding
        // backward is a scatter of comparable traffic.
        s.parts.push_back(
            {"head", headOps(cfg, mb_tokens, tp, opts.precision), 3.0});
        s.parts.push_back({"embedding", {embed}, 2.0});
        steps.push_back(std::move(s));
    }

    return steps;
}

void
lowerTrainingMapping(const TransformerConfig &cfg, const System &sys,
                     const ParallelConfig &par, long long global_batch,
                     const TrainingOptions &opts, KernelPlan &kp)
{
    const long long tp = par.tensorParallel;
    const long long pp = par.pipelineParallel;
    const long long layers_local = cfg.numLayers / pp;
    const long long m = par.microbatches(global_batch);
    const double act_bytes = activationBytes(opts.precision);

    kp.phase = "training";
    // The critical (worst) pipeline stage — the one whose per-device
    // time the analytical model predicts; tracing all pp stages would
    // multiply category sums by pp.
    kp.lanes = {"stage0/fwd",  "stage0/bwd", "stage0/recompute",
                "stage0/comm", "stage0/other", "kernels/fwd",
                "kernels/bwd"};
    kp.counters = {{"train/microbatches", double(m)},
                   {"train/layers-per-stage", double(layers_local)}};
    kp.microbatches = m;

    // At most eight mapping steps follow: TP, CP, EP, PP, bubble, DP,
    // ZeRO-3 and optimizer.
    kp.steps.reserve(kp.steps.size() + 8);

    // ---- Repeats of the compute steps -------------------------------
    for (PlanStep &s : kp.steps) {
        s.repeatMicrobatch = m;
        if (s.coordLayer)
            s.repeatLayer = layers_local;
        // With pipeline parallelism the embedding and the head live
        // on different stages, so the critical stage carries only the
        // larger part.
        if (s.name == "embed+head")
            s.combine = (pp > 1) ? PartCombine::Max : PartCombine::Sum;
    }

    // ---- Tensor/sequence-parallel collectives -----------------------
    if (tp > 1) {
        PlanStep s;
        s.kind = StepKind::Collective;
        s.lane = "stage0/comm";
        s.name = "tp-allreduce";
        s.category = "tp-comm";
        s.phase = "train";
        s.repeatMicrobatch = m;
        s.repeatLayer = layers_local;
        s.coordMicrobatch = s.coordLayer = true;
        s.collective = CollectiveKind::AllReduce;
        s.volume = double(par.microbatchSize) * opts.seqLength *
                   cfg.hiddenSize * act_bytes;
        s.groupSize = tp;
        s.scope = groupScopeFor(sys, tp);
        s.algorithm = opts.collectiveAlgorithm;
        // Two collectives per block pair (attention, MLP) in forward,
        // two in backward; full recomputation repeats the forward
        // ones. Selective recomputation's region has no collective.
        s.callsPerInstance =
            4.0 + (opts.recompute == Recompute::Full ? 2.0 : 0.0);
        s.exposedFraction = 1.0 - opts.tpOverlapFraction;
        kp.steps.push_back(std::move(s));
    }

    // ---- Context-parallel ring-attention KV exchange ----------------
    if (par.contextParallel > 1) {
        // Each device's K/V shard circulates around the CP ring: an
        // all-gather's worth of wire traffic per layer in forward,
        // twice in backward (KV again plus their gradients), plus the
        // recompute replay.
        double kv_heads_local =
            std::max(1.0, double(cfg.numKvHeads) / double(tp));
        PlanStep s;
        s.kind = StepKind::Collective;
        s.lane = "stage0/comm";
        s.name = "cp-ring-exchange";
        s.category = "cp-comm";
        s.phase = "train";
        s.repeatMicrobatch = m;
        s.repeatLayer = layers_local;
        s.coordMicrobatch = s.coordLayer = true;
        s.collective = CollectiveKind::AllGather;
        s.volume = 2.0 * double(par.microbatchSize) * opts.seqLength *
                   kv_heads_local * double(cfg.headDim()) * act_bytes;
        s.groupSize = par.contextParallel;
        s.scope = groupScopeFor(sys, par.contextParallel * tp);
        s.algorithm = opts.collectiveAlgorithm;
        s.callsPerInstance =
            3.0 + (opts.recompute == Recompute::Full ? 1.0 : 0.0);
        kp.steps.push_back(std::move(s));
    }

    // ---- MoE expert-parallel all-to-all ------------------------------
    if (cfg.isMoe() && par.expertParallel > 1) {
        // Dispatch + combine per layer in forward, again in backward,
        // and once more when full recomputation replays the forward.
        PlanStep s;
        s.kind = StepKind::Collective;
        s.lane = "stage0/comm";
        s.name = "ep-alltoall";
        s.category = "ep-comm";
        s.phase = "train";
        s.repeatMicrobatch = m;
        s.repeatLayer = layers_local;
        s.coordMicrobatch = s.coordLayer = true;
        s.collective = CollectiveKind::AllToAll;
        s.volume = double(par.microbatchSize) * opts.seqLength *
                   cfg.topK * cfg.hiddenSize * act_bytes;
        s.groupSize = par.expertParallel;
        s.scope = groupScopeFor(sys, tp * pp);
        s.algorithm = opts.collectiveAlgorithm;
        s.callsPerInstance =
            4.0 + (opts.recompute == Recompute::Full ? 2.0 : 0.0);
        kp.steps.push_back(std::move(s));
    }

    // ---- Pipeline schedule ------------------------------------------
    PipelineCost pc =
        pipelineCost(par.schedule, pp, m, par.interleavedStages);
    kp.bubbleFraction = pc.bubbleFraction;
    if (pp > 1) {
        double p2p_volume = double(par.microbatchSize) * opts.seqLength *
                            cfg.hiddenSize * act_bytes;
        if (par.sequenceParallel)
            p2p_volume /= double(tp);
        PlanStep s;
        s.kind = StepKind::Collective;
        s.lane = "stage0/comm";
        s.name = "pp-p2p";
        s.category = "pp-comm";
        s.phase = "train";
        s.repeatMicrobatch = m;
        s.coordMicrobatch = true;
        s.collective = CollectiveKind::PointToPoint;
        s.volume = p2p_volume;
        s.groupSize = 2;
        s.scope = groupScopeFor(sys, tp * pp);
        s.algorithm = opts.collectiveAlgorithm;
        s.callsPerInstance = pc.p2pPerMicrobatch;
        kp.steps.push_back(std::move(s));
    }

    // Bubble applies to the busy time of one pipeline iteration — the
    // running total of every step lowered above this one.
    {
        PlanStep s;
        s.kind = StepKind::Synthetic;
        s.lane = "stage0/other";
        s.name = "pipeline-bubble";
        s.category = "bubble";
        s.phase = "train";
        s.synthetic = SyntheticKind::Bubble;
        s.syntheticValue = pc.bubbleFraction;
        kp.steps.push_back(std::move(s));
    }

    // ---- Data-parallel gradient communication -----------------------
    if (par.dataParallel > 1) {
        GroupScope dp_scope = groupScopeFor(sys, par.totalDevices());
        // Plain DP all-reduces gradients. ZeRO stages reduce-scatter
        // the gradients and all-gather the updated weights — the same
        // total volume as one all-reduce; stage 3 additionally
        // re-gathers the sharded weights around the forward and
        // backward passes.
        PlanStep s;
        s.kind = StepKind::Collective;
        s.lane = "stage0/comm";
        s.name = "dp-grad-allreduce";
        s.category = "dp-comm";
        s.phase = "train";
        s.collective = CollectiveKind::AllReduce;
        s.volume = parametersPerDevice(cfg, par) * kGradientBytes;
        s.groupSize = par.dataParallel;
        s.scope = dp_scope;
        s.algorithm = opts.collectiveAlgorithm;
        s.exposedFraction = 1.0 - opts.dpOverlapFraction;
        kp.steps.push_back(std::move(s));

        if (opts.memory.zeroStage >= 3) {
            PlanStep g;
            g.kind = StepKind::Collective;
            g.lane = "stage0/comm";
            g.name = "zero3-weight-allgather";
            g.category = "dp-comm";
            g.phase = "train";
            g.repeatMicrobatch = 2;  // around forward and backward
            g.collective = CollectiveKind::AllGather;
            g.volume = parametersPerDevice(cfg, par) * kWeightBytes;
            g.groupSize = par.dataParallel;
            g.scope = dp_scope;
            g.algorithm = opts.collectiveAlgorithm;
            kp.steps.push_back(std::move(g));
        }
    }

    // ---- Optimizer step ---------------------------------------------
    {
        // Adam mixed precision: read fp32 master+momentum+variance and
        // the fp16 gradient, write the three fp32 states and the fp16
        // weight. ZeRO shards the update over the data-parallel group.
        double params = parametersPerDevice(cfg, par);
        if (opts.memory.zeroStage >= 1)
            params /= double(par.dataParallel);
        PlanStep s;
        s.kind = StepKind::Synthetic;
        s.lane = "stage0/other";
        s.name = "optimizer-step";
        s.category = "optimizer";
        s.phase = "train";
        s.synthetic = SyntheticKind::Optimizer;
        s.syntheticValue =
            params * (kOptimizerBytesPerParam + kGradientBytes +
                      kOptimizerBytesPerParam + kWeightBytes);
        kp.steps.push_back(std::move(s));
    }
}

KernelPlan
lowerTraining(const TransformerConfig &cfg, const System &sys,
              const ParallelConfig &par, long long global_batch,
              const TrainingOptions &opts)
{
    lint::enforce(
        lint::lintTrainingGate(cfg, sys, par, global_batch, opts));

    KernelPlan kp;
    kp.steps = lowerTrainingCompute(cfg, par, opts);
    lowerTrainingMapping(cfg, sys, par, global_batch, opts, kp);
    return kp;
}

} // namespace plan
} // namespace optimus
