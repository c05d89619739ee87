/**
 * @file
 * Thin drivers over the plan pipeline: lower -> evaluate -> fold,
 * plus the non-plan tails (memory footprint, model FLOPs / MFU,
 * KV-cache / weight accounting) that evaluateTraining and
 * evaluateInference return.
 */

#include "plan/plan.h"

#include "memory/footprint.h"
#include "memory/kv_cache.h"
#include "trace/trace.h"

namespace optimus {
namespace plan {

namespace {

/** Model FLOPs for one batch (fwd + bwd, no recompute). */
double
modelFlopsPerBatch(const TransformerConfig &cfg, long long global_batch,
                   long long seq, Precision precision)
{
    LayerGraphParams gp;
    gp.batch = global_batch;
    gp.seq = seq;
    gp.tensorParallel = 1;
    gp.training = true;
    gp.precision = precision;

    double layer_fwd = 0.0;
    for (const Op &op : layerForwardOps(cfg, gp))
        layer_fwd += opFlops(op);

    double head_fwd = 0.0;
    for (const Op &op : headOps(cfg, global_batch * seq, 1, precision))
        head_fwd += opFlops(op);

    // Backward is twice the forward work.
    return 3.0 * (layer_fwd * double(cfg.numLayers) + head_fwd);
}

} // namespace

TrainingRun
runTraining(const TransformerConfig &cfg, const System &sys,
            const ParallelConfig &par, long long global_batch,
            const TrainingOptions &opts, EvaluateOptions eval)
{
    KernelPlan kp = lowerTraining(cfg, sys, par, global_batch, opts);
    eval.detail = eval.detail || tracing(opts.trace);

    TrainingRun run;
    run.plan = evaluatePlan(std::move(kp), sys, eval);
    FoldedTraining f = foldTraining(run.plan, opts.trace);

    TrainingReport &rep = run.report;
    rep.time = f.time;
    rep.layerForward = f.layerForward;
    rep.layerBackward = f.layerBackward;
    rep.microbatches = run.plan.plan.microbatches;
    rep.bubbleFraction = run.plan.plan.bubbleFraction;
    rep.timePerBatch = rep.time.total();

    rep.memory = trainingMemoryPerDevice(cfg, par, global_batch,
                                         opts.seqLength, opts.recompute,
                                         opts.memory);
    rep.modelFlops = modelFlopsPerBatch(cfg, global_batch,
                                        opts.seqLength, opts.precision);
    double system_peak = run.plan.dev.matrixFlops(opts.precision) *
                         double(sys.totalDevices());
    rep.mfu = rep.modelFlops / (rep.timePerBatch * system_peak);
    if (tracing(opts.trace)) {
        opts.trace->counterSet("train/time-per-batch-s",
                               rep.timePerBatch);
        opts.trace->counterSet("train/mfu", rep.mfu);
    }
    return run;
}

InferenceRun
runInference(const TransformerConfig &cfg, const System &sys,
             const InferenceOptions &opts, EvaluateOptions eval)
{
    KernelPlan kp = lowerInference(cfg, sys, opts);
    eval.detail = eval.detail || tracing(opts.trace);

    InferenceRun run;
    run.plan = evaluatePlan(std::move(kp), sys, eval);
    FoldedInference f = foldInference(run.plan, opts.trace);

    InferenceReport &rep = run.report;
    rep.prefill = f.prefill;
    rep.decode = f.decode;
    rep.totalLatency = rep.prefill.time + rep.decode.time;

    long long final_ctx = opts.promptLength + opts.generateLength;
    rep.kvCacheBytes = kvCacheBytes(cfg, opts.batch, final_ctx,
                                    opts.kvPrecision);
    rep.weightBytes = modelWeightBytes(cfg, opts.precision);
    rep.fitsDeviceMemory =
        (rep.weightBytes + rep.kvCacheBytes) /
            double(opts.tensorParallel * opts.pipelineParallel) <=
        run.plan.dev.dram().capacity;
    return run;
}

} // namespace plan
} // namespace optimus
