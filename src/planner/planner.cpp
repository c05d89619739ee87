#include "planner/planner.h"

#include <algorithm>

#include "exec/exec.h"
#include "lint/lint.h"
#include "memory/footprint.h"
#include "plan/plan.h"
#include "trace/trace.h"
#include "util/error.h"

namespace optimus {

namespace {

/** Deepest interleaving for @p pp (one transformer layer per chunk). */
long long
deepestInterleave(const TransformerConfig &model, long long pp)
{
    return model.numLayers / pp;
}

} // namespace

std::vector<TrainingPlan>
planTraining(const TransformerConfig &model, const System &sys,
             long long global_batch, const TrainingPlannerOptions &opts)
{
    model.validate();
    sys.validate();
    checkPositive(global_batch, "global batch");
    checkConfig(!opts.recomputeChoices.empty(),
                "planner needs at least one recompute choice");
    checkConfig(!opts.microbatchSizes.empty(),
                "planner needs at least one microbatch size");

    TraceSession *tr = opts.trace;
    const bool tron = tracing(tr);

    // Phase 1 (serial, cheap): enumerate the full candidate space,
    // pruning by lint and memory. The loop-invariant option fields
    // are built once, outside the recompute/zero loops.
    TrainingOptions base;
    base.precision = opts.precision;
    base.seqLength = opts.seqLength;
    base.flashAttention = opts.flashAttention;
    base.memory.flashAttention = opts.flashAttention;
    base.memory.activationBytes =
        std::max(1.0, precisionBytes(opts.precision));

    struct Candidate
    {
        ParallelConfig parallel;
        TrainingOptions options;
    };
    std::vector<Candidate> candidates;

    for (long long tp = 1; tp <= sys.devicesPerNode; tp *= 2) {
        for (long long pp = 1;
             tp * pp <= sys.totalDevices() && pp <= model.numLayers;
             pp *= 2) {
            long long dp = sys.totalDevices() / (tp * pp);

            std::vector<long long> interleaves = {1};
            if (opts.tryInterleaving && pp > 1) {
                long long v = deepestInterleave(model, pp);
                if (v > 1)
                    interleaves.push_back(v);
            }

            for (long long micro : opts.microbatchSizes) {
                for (long long v : interleaves) {
                    ParallelConfig par;
                    par.dataParallel = dp;
                    par.tensorParallel = tp;
                    par.pipelineParallel = pp;
                    par.sequenceParallel =
                        opts.allowSequenceParallel && tp > 1;
                    par.microbatchSize = micro;
                    if (v > 1) {
                        par.schedule =
                            PipelineSchedule::Interleaved1F1B;
                        par.interleavedStages = v;
                    }
                    // One lint call replaces the hand-rolled
                    // divisibility checks: skip illegal mappings
                    // before touching memory or timing models.
                    if (tron)
                        tr->counterAdd(
                            "planner/mappings-enumerated");
                    if (!lint::isLegalMapping(model, sys, par,
                                              global_batch)) {
                        if (tron)
                            tr->counterAdd(
                                "planner/pruned-illegal");
                        continue;
                    }

                    for (Recompute r : opts.recomputeChoices) {
                        TrainingOptions topts = base;
                        topts.recompute = r;
                        for (int zero : opts.zeroStages) {
                            topts.memory.zeroStage = zero;

                            TrainingMemory mem =
                                trainingMemoryPerDevice(
                                    model, par, global_batch,
                                    opts.seqLength, r, topts.memory);
                            if (mem.total() >
                                sys.device.dram().capacity) {
                                if (tron)
                                    tr->counterAdd(
                                        "planner/pruned-memory");
                                continue;
                            }
                            if (tron)
                                tr->counterAdd(
                                    "planner/plans-evaluated");
                            candidates.push_back(
                                Candidate{par, topts});
                        }
                    }
                }
            }
        }
    }

    // Phase 2: evaluate every surviving candidate. Evaluations are
    // independent pure functions, fanned out through the exec layer
    // and written by slot — the plans vector is bit-identical to a
    // serial run at any thread count (and sized from the candidate
    // count up front). Candidates with different (tp, microbatch,
    // recompute) mappings still lower to many identical kernels on
    // the same device, so one shared estimate cache serves the whole
    // sweep; cached estimates are exact replays, keeping results
    // independent of hit order and thread count.
    plan::EvalCache cache;
    std::vector<TrainingPlan> plans =
        exec::parallelMap(
            static_cast<long long>(candidates.size()), opts.threads,
            [&](long long i) {
                const Candidate &c =
                    candidates[static_cast<size_t>(i)];
                TrainingPlan plan;
                plan.parallel = c.parallel;
                plan.options = c.options;
                plan.report =
                    plan::runTraining(model, sys, c.parallel,
                                      global_batch, plan.options,
                                      {.cache = &cache})
                        .report;
                return plan;
            });

    std::sort(plans.begin(), plans.end(),
              [](const TrainingPlan &a, const TrainingPlan &b) {
                  return a.report.timePerBatch <
                         b.report.timePerBatch;
              });
    if (plans.size() > opts.keep)
        plans.resize(opts.keep);
    return plans;
}

TrainingPlan
bestTrainingPlan(const TransformerConfig &model, const System &sys,
                 long long global_batch,
                 const TrainingPlannerOptions &opts)
{
    std::vector<TrainingPlan> plans =
        planTraining(model, sys, global_batch, opts);
    checkConfig(!plans.empty(),
                "no parallelization of " + model.name + " fits " +
                    sys.device.name + " memory at batch " +
                    std::to_string(global_batch));
    return plans.front();
}

std::vector<ServingPlan>
planServing(const TransformerConfig &model, const System &sys,
            const ServingPlannerOptions &opts)
{
    model.validate();
    sys.validate();
    checkPositive(opts.maxBatch, "maxBatch");
    std::vector<long long> batches;
    for (long long b = 1; b <= opts.maxBatch; b *= 2)
        batches.push_back(b);

    std::vector<ServingPlan> plans;
    TraceSession *tr = opts.trace;
    const bool tron = tracing(tr);
    for (long long tp : opts.tensorParallelChoices) {
        if (tp > sys.totalDevices() || model.numHeads % tp != 0 ||
            model.ffnHidden % tp != 0) {
            if (tron)
                tr->counterAdd("planner/serving-tp-skipped");
            continue;
        }
        ServingOptions sopts = opts.serving;
        sopts.tensorParallel = tp;

        ServingPlan best;
        bool any = false;
        for (const ServingPoint &pt :
             servingSweep(model, sys, sopts, batches)) {
            if (tron)
                tr->counterAdd("planner/serving-points");
            if (!pt.fits)
                break;
            if (opts.maxInterTokenLatency > 0.0 &&
                pt.interTokenLatency > opts.maxInterTokenLatency)
                break;  // latency grows with batch: stop here
            if (!any ||
                pt.tokensPerSecond > best.point.tokensPerSecond) {
                best.tensorParallel = tp;
                best.point = pt;
                best.tokensPerSecondPerDevice =
                    pt.tokensPerSecond / double(tp);
                any = true;
            }
        }
        if (any)
            plans.push_back(best);
    }

    std::sort(plans.begin(), plans.end(),
              [](const ServingPlan &a, const ServingPlan &b) {
                  return a.tokensPerSecondPerDevice >
                         b.tokensPerSecondPerDevice;
              });
    return plans;
}

} // namespace optimus
