#include "inference/speculative.h"

#include <cmath>

#include "plan/plan.h"
#include "util/error.h"

namespace optimus {

namespace {

/**
 * One decode step of @p cfg over @p queries query tokens at
 * opts.context, priced through the plan's decode-step lowering. The
 * KV cache is stored at the compute precision.
 */
double
decodeStep(const TransformerConfig &cfg, const System &sys,
           const SpeculativeOptions &opts, long long queries,
           long long tp)
{
    InferenceOptions io;
    io.precision = opts.precision;
    io.kvPrecision = opts.precision;
    io.tensorParallel = tp;
    io.batch = queries;
    io.promptLength = opts.context - 1;
    plan::KernelPlan kp;
    plan::lowerDecodeTokens(cfg, sys, io, 0, 1, kp.steps);
    return plan::foldInference(plan::evaluatePlan(std::move(kp), sys),
                               nullptr)
        .decode.time;
}

} // namespace

SpeculativeReport
evaluateSpeculative(const TransformerConfig &target,
                    const TransformerConfig &draft, const System &sys,
                    const SpeculativeOptions &opts)
{
    target.validate();
    draft.validate();
    sys.validate();
    checkPositive(opts.gamma, "gamma");
    checkPositive(opts.context, "context");
    checkConfig(opts.acceptanceRate > 0.0 && opts.acceptanceRate < 1.0,
                "acceptanceRate must be in (0,1)");
    checkConfig(draft.parameterCount() < target.parameterCount(),
                "draft model must be smaller than the target");

    SpeculativeReport rep;

    // The draft runs unsharded (it is small); the target keeps TP.
    rep.draftStepTime = decodeStep(draft, sys, opts, 1, 1);
    rep.verifyTime = decodeStep(target, sys, opts, opts.gamma + 1,
                                opts.tensorParallel);

    rep.cycleTime =
        double(opts.gamma) * rep.draftStepTime + rep.verifyTime;

    const double a = opts.acceptanceRate;
    rep.expectedTokensPerCycle =
        (1.0 - std::pow(a, double(opts.gamma) + 1.0)) / (1.0 - a);

    rep.tokensPerSecond = rep.expectedTokensPerCycle / rep.cycleTime;

    double target_step =
        decodeStep(target, sys, opts, 1, opts.tensorParallel);
    rep.baselineTokensPerSecond = 1.0 / target_step;
    rep.speedup = rep.tokensPerSecond / rep.baselineTokensPerSecond;
    return rep;
}

} // namespace optimus
