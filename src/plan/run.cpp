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

TrainingReport
trainingReport(const EvaluatedPlan &ep, FoldedTraining f,
               const System &sys, Precision precision,
               const TrainingMemory &memory, double model_flops)
{
    TrainingReport rep;
    rep.time = f.time;
    rep.layerForward = std::move(f.layerForward);
    rep.layerBackward = std::move(f.layerBackward);
    rep.microbatches = ep.plan.microbatches;
    rep.bubbleFraction = ep.plan.bubbleFraction;
    rep.timePerBatch = rep.time.total();
    rep.memory = memory;
    rep.modelFlops = model_flops;
    double system_peak =
        ep.dev.matrixFlops(precision) * double(sys.totalDevices());
    rep.mfu = rep.modelFlops / (rep.timePerBatch * system_peak);
    return rep;
}

TrainingRun
runTraining(const TransformerConfig &cfg, const System &sys,
            const ParallelConfig &par, long long global_batch,
            const TrainingOptions &opts, EvaluateOptions eval)
{
    KernelPlan kp = lowerTraining(cfg, sys, par, global_batch, opts);
    eval.detail = eval.detail || opts.trace != nullptr;

    TrainingRun run;
    run.plan = evaluatePlan(std::move(kp), sys, eval);
    FoldedTraining f = foldTraining(run.plan, opts.trace);
    run.report = trainingReport(
        run.plan, std::move(f), sys, opts.precision,
        trainingMemoryPerDevice(cfg, par, global_batch, opts),
        modelFlopsPerBatch(cfg, global_batch, opts.seqLength,
                           opts.precision));
    if (opts.trace != nullptr) {
        opts.trace->counterSet("train/time-per-batch-s",
                               run.report.timePerBatch);
        opts.trace->counterSet("train/mfu", run.report.mfu);
    }
    return run;
}

InferenceRun
runInference(const TransformerConfig &cfg, const System &sys,
             const InferenceOptions &opts, EvaluateOptions eval)
{
    KernelPlan kp = lowerInference(cfg, sys, opts);
    eval.detail = eval.detail || opts.trace != nullptr;

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
