/**
 * @file
 * Lowering of an inference configuration onto the kernel-plan IR.
 *
 * Prefill lowers to one step per layer op (repeated over the L
 * layers), decode to one step per (token, op) with the L layers
 * aggregated into a single span — the historical decode-lane shape.
 * lowerDecodeToken is the one decode-step lowering: the serving and
 * speculative models price their steps through it too.
 * All TP/PP communication scopes go through groupScopeFor(), so a TP
 * group larger than a node correctly pays the inter-node link.
 */

#include "plan/plan.h"

#include "hw/precision.h"
#include "util/error.h"

namespace optimus {
namespace plan {

namespace {

/** One bound-bucketed kernel step for a single op. */
PlanStep
opStep(const Op &op, const char *lane, const char *phase)
{
    PlanStep s;
    s.kind = StepKind::Compute;
    s.lane = lane;
    s.name = op.name;
    s.phase = phase;
    s.bucketByBound = true;
    s.kernelDetail = true;
    s.parts.push_back({op.name, {op}, 1.0});
    return s;
}

} // namespace

void
lowerDecodeToken(const TransformerConfig &cfg, const System &sys,
                 const InferenceOptions &opts, long long token,
                 std::vector<PlanStep> &steps)
{
    const long long L = cfg.numLayers;
    const long long tp = opts.tensorParallel;
    const long long context = opts.promptLength + token + 1;

    for (const Op &op : decodeLayerOps(cfg, opts.batch, context, tp,
                                       opts.precision, opts.kvPrecision)) {
        PlanStep s = opStep(op, "decode", "decode");
        s.repeatLayer = L;
        s.aggregateLayers = true;
        s.step = token;
        steps.push_back(std::move(s));
    }

    if (tp > 1) {
        PlanStep s;
        s.kind = StepKind::Collective;
        s.lane = "decode/comm";
        s.name = "tp-allreduce";
        s.category = "decode-comm";
        s.phase = "decode";
        s.repeatLayer = L;
        s.aggregateLayers = true;
        s.step = token;
        s.collective = CollectiveKind::AllReduce;
        s.volume = double(opts.batch) * double(cfg.hiddenSize) *
                   precisionBytes(opts.precision);
        s.groupSize = tp;
        s.scope = groupScopeFor(sys, tp);
        s.algorithm = opts.collectiveAlgorithm;
        s.callsPerInstance = 2.0;
        steps.push_back(std::move(s));
    }

    // Sampling head for this token.
    for (const Op &op : headOps(cfg, opts.batch, tp, opts.precision)) {
        PlanStep s = opStep(op, "decode", "decode");
        s.step = token;
        steps.push_back(std::move(s));
    }
}

KernelPlan
lowerInference(const TransformerConfig &cfg, const System &sys,
               const InferenceOptions &opts)
{
    cfg.validate();
    sys.validate();
    checkPositive(opts.batch, "batch");
    checkPositive(opts.promptLength, "promptLength");
    checkPositive(opts.generateLength, "generateLength");
    checkPositive(opts.tensorParallel, "tensorParallel");
    checkPositive(opts.pipelineParallel, "pipelineParallel");
    checkConfig(opts.tensorParallel * opts.pipelineParallel <=
                    sys.totalDevices(),
                "TP x PP exceeds system size");
    checkConfig(cfg.numLayers % opts.pipelineParallel == 0,
                "layers must divide by the PP degree");

    const long long L = cfg.numLayers;
    const long long tp = opts.tensorParallel;

    KernelPlan kp;
    kp.phase = "inference";
    kp.lanes = {"prefill", "prefill/comm", "decode", "decode/comm"};
    kp.counters = {{"infer/decode-tokens", double(opts.generateLength)},
                   {"infer/layers", double(L)}};
    kp.layersPerStage = L;

    // ---- Prefill (summarization) ------------------------------------
    LayerGraphParams gp;
    gp.batch = opts.batch;
    gp.seq = opts.promptLength;
    gp.tensorParallel = tp;
    gp.precision = opts.precision;
    gp.training = false;
    gp.flashAttention = opts.flashAttention;

    for (const Op &op : layerForwardOps(cfg, gp)) {
        PlanStep s = opStep(op, "prefill", "prefill");
        s.repeatLayer = L;
        s.coordLayer = true;
        kp.steps.push_back(std::move(s));
    }

    // TP all-reduce of the layer's two row-parallel outputs.
    if (tp > 1) {
        PlanStep s;
        s.kind = StepKind::Collective;
        s.lane = "prefill/comm";
        s.name = "tp-allreduce";
        s.category = "prefill-comm";
        s.phase = "prefill";
        s.repeatLayer = L;
        s.coordLayer = true;
        s.collective = CollectiveKind::AllReduce;
        s.volume = double(opts.batch) * opts.promptLength *
                   double(cfg.hiddenSize) *
                   precisionBytes(opts.precision);
        s.groupSize = tp;
        s.scope = groupScopeFor(sys, tp);
        s.algorithm = opts.collectiveAlgorithm;
        s.callsPerInstance = 2.0;
        kp.steps.push_back(std::move(s));
    }

    // First sampled token: the LM head runs once on the last position.
    for (const Op &op :
         headOps(cfg, opts.batch, tp, opts.precision))
        kp.steps.push_back(opStep(op, "prefill", "prefill"));

    // ---- Decode (auto-regressive generation) ------------------------
    for (long long i = 0; i < opts.generateLength; ++i)
        lowerDecodeToken(cfg, sys, opts, i, kp.steps);

    // Pipeline-parallel stages add one activation hop per boundary:
    // per prefill pass and per generated token. The hop uses the
    // default (auto) algorithm choice — a p2p has no algorithm knob.
    if (opts.pipelineParallel > 1) {
        GroupScope scope =
            groupScopeFor(sys, tp * opts.pipelineParallel);
        double hops = double(opts.pipelineParallel - 1);
        {
            PlanStep s;
            s.kind = StepKind::Collective;
            s.lane = "prefill/comm";
            s.name = "pp-hops";
            s.category = "prefill-comm";
            s.phase = "prefill";
            s.collective = CollectiveKind::PointToPoint;
            s.volume = double(opts.batch) * opts.promptLength *
                       cfg.hiddenSize * precisionBytes(opts.precision);
            s.groupSize = 2;
            s.scope = scope;
            s.callsPerInstance = hops;
            kp.steps.push_back(std::move(s));
        }
        {
            PlanStep s;
            s.kind = StepKind::Collective;
            s.lane = "decode/comm";
            s.name = "pp-hops";
            s.category = "decode-comm";
            s.phase = "decode";
            s.repeatLayer = opts.generateLength;
            s.aggregateLayers = true;
            s.collective = CollectiveKind::PointToPoint;
            s.volume = double(opts.batch) * cfg.hiddenSize *
                       precisionBytes(opts.precision);
            s.groupSize = 2;
            s.scope = scope;
            s.callsPerInstance = hops;
            kp.steps.push_back(std::move(s));
        }
    }

    return kp;
}

} // namespace plan
} // namespace optimus
