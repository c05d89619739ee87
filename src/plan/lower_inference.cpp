/**
 * @file
 * Lowering of an inference configuration onto the kernel-plan IR.
 *
 * Prefill lowers to one step per layer op (repeated over the L
 * layers). Decode lowers to one token-range step per op covering every
 * generated token, with the L layers aggregated into a single span per
 * token — the historical decode-lane shape. Only the attention ops
 * read the growing KV cache, so only they are priced per token, from
 * the attention builder and context their step keeps.
 * lowerPrefill and lowerDecodeTokens are the one prefill and decode-step
 * lowerings: the serving and speculative models price through them.
 * All TP/PP communication scopes go through groupScopeFor(), so a TP
 * group larger than a node correctly pays the inter-node link.
 */

#include "plan/plan.h"

#include "hw/precision.h"
#include "lint/lint.h"

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
    s.parts.push_back({op.name, {op}, 1.0});
    return s;
}

} // namespace

void
lowerDecodeTokens(const TransformerConfig &cfg, const System &sys,
                  const InferenceOptions &opts, long long first,
                  long long count, std::vector<PlanStep> &steps)
{
    const long long L = cfg.numLayers;
    const long long tp = opts.tensorParallel;
    const long long context = opts.promptLength + first + 1;
    const size_t group_begin = steps.size();

    for (const Op &op : decodeLayerOps(cfg, opts.batch, context, tp,
                                       opts.precision, opts.kvPrecision)) {
        PlanStep s = opStep(op, "decode", "decode");
        s.repeatLayer = L;
        steps.push_back(std::move(s));
    }

    // The context-dependent steps keep the attention builder and
    // their first token's context; evaluation builds each token's op.
    if (count > 1) {
        const DecodeAttention attention =
            decodeAttention(cfg, opts.batch, tp, opts.kvPrecision);
        for (int k = 0; k < DecodeAttention::kOps; ++k) {
            const auto kind = DecodeAttention::Kind(k);
            const std::string name = attention.op(kind, context).name;
            for (size_t i = group_begin; i < steps.size(); ++i)
                if (steps[i].name == name) {
                    steps[i].parts.clear();
                    steps[i].contextDependent = true;
                    steps[i].attention = attention;
                    steps[i].attentionOp = kind;
                    steps[i].context = context;
                }
        }
    }

    if (tp > 1) {
        PlanStep s;
        s.kind = StepKind::Collective;
        s.lane = "decode/comm";
        s.name = "tp-allreduce";
        s.category = "decode-comm";
        s.phase = "decode";
        s.repeatLayer = L;
        s.collective = CollectiveKind::AllReduce;
        s.volume = double(opts.batch) * double(cfg.hiddenSize) *
                   precisionBytes(opts.precision);
        s.groupSize = tp;
        s.scope = groupScopeFor(sys, tp);
        s.algorithm = opts.collectiveAlgorithm;
        s.callsPerInstance = 2.0;
        steps.push_back(std::move(s));
    }

    // Sampling head, once per token.
    for (const Op &op : headOps(cfg, opts.batch, tp, opts.precision))
        steps.push_back(opStep(op, "decode", "decode"));

    for (size_t i = group_begin; i < steps.size(); ++i) {
        steps[i].step = first;
        steps[i].repeatToken = count;
    }
}

void
lowerPrefill(const TransformerConfig &cfg, const System &sys,
             const InferenceOptions &opts, std::vector<PlanStep> &steps)
{
    const long long L = cfg.numLayers;
    const long long tp = opts.tensorParallel;

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
        steps.push_back(std::move(s));
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
        steps.push_back(std::move(s));
    }

    // First sampled token: the LM head runs once on the last position.
    for (const Op &op :
         headOps(cfg, opts.batch, tp, opts.precision))
        steps.push_back(opStep(op, "prefill", "prefill"));
}

KernelPlan
lowerInference(const TransformerConfig &cfg, const System &sys,
               const InferenceOptions &opts)
{
    lint::enforce(lint::lintInferenceGate(cfg, sys, opts));

    const long long tp = opts.tensorParallel;

    KernelPlan kp;
    kp.phase = "inference";
    kp.lanes = {"prefill", "prefill/comm", "decode", "decode/comm"};
    kp.counters = {{"infer/decode-tokens", double(opts.generateLength)},
                   {"infer/layers", double(cfg.numLayers)}};

    // ---- Prefill (summarization) ------------------------------------
    lowerPrefill(cfg, sys, opts, kp.steps);

    // ---- Decode (auto-regressive generation) ------------------------
    lowerDecodeTokens(cfg, sys, opts, 0, opts.generateLength, kp.steps);

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
