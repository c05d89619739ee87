#include "inference/speculative.h"

#include <cmath>

#include "lint/lint.h"
#include "plan/plan.h"
#include "util/error.h"

namespace optimus {

namespace {

/** A cycle at TP @p tp: the context, then up to gamma + 1 tokens. */
InferenceOptions
cycleOptions(const SpeculativeOptions &opts, long long tp)
{
    InferenceOptions io;
    io.precision = opts.precision;
    io.kvPrecision = opts.precision;
    io.tensorParallel = tp;
    io.promptLength = opts.context;
    io.generateLength = opts.gamma + 1;
    return io;
}

/**
 * One decode step of @p cfg over @p queries query tokens at
 * opts.context, priced through the plan's decode-step lowering.
 */
double
decodeStep(const TransformerConfig &cfg, const System &sys,
           const SpeculativeOptions &opts, long long queries,
           long long tp)
{
    InferenceOptions io = cycleOptions(opts, tp);
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
    checkPositive(opts.gamma, "gamma");
    checkConfig(opts.acceptanceRate > 0.0 && opts.acceptanceRate < 1.0,
                "acceptanceRate must be in (0,1)");

    // Gate: the target at its TP and the draft at TP 1.
    lint::LintReport report = lint::lintModel(target);
    report.merge(lint::lintModel(draft));
    report.merge(lint::lintSystem(sys));
    if (!report.hasErrors()) {
        report.merge(lint::lintInferenceMapping(
            target, sys, cycleOptions(opts, opts.tensorParallel)));
        report.merge(
            lint::lintInferenceMapping(draft, sys, cycleOptions(opts, 1)));
    }
    lint::enforce(report);
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
