#include "planner/planner.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "exec/exec.h"
#include "lint/lint.h"
#include "memory/footprint.h"
#include "plan/plan.h"
#include "trace/trace.h"
#include "util/error.h"

namespace optimus {

namespace {

/** Add @p n to @p counter of the trace sink @p tr, if there is one. */
void
count(TraceSession *tr, const char *counter, double n = 1.0)
{
    if (tr != nullptr)
        tr->counterAdd(counter, n);
}

} // namespace

std::vector<TrainingPlan>
planTraining(const TransformerConfig &model, const System &sys,
             long long global_batch, const TrainingPlannerOptions &opts)
{
    checkPositive(global_batch, "global batch");
    checkConfig(!opts.recomputeChoices.empty(),
                "planner needs at least one recompute choice");
    checkConfig(!opts.microbatchSizes.empty(),
                "planner needs at least one microbatch size");

    // The run's options; each candidate sets recompute and ZeRO.
    TrainingOptions base = opts.training;
    base.trace = nullptr;

    // The gate: model, system, then the options at each ZeRO stage (no
    // candidate sets CP); isLegalMapping filters each mapping.
    lint::LintReport report = lint::lintModel(model);
    report.merge(lint::lintSystem(sys));
    if (!report.hasErrors())
        for (int zero : opts.zeroStages) {
            TrainingOptions topts = base;
            topts.memory.zeroStage = zero;
            report.merge(lint::lintTrainingOptions(model, sys,
                                                   ParallelConfig{}, topts));
        }
    lint::enforce(report);

    // Phase 1 (serial, cheap): enumerate the full candidate space,
    // pruning by lint and memory.
    struct Candidate
    {
        ParallelConfig parallel;
        TrainingOptions options;
        TrainingMemory memory;
        size_t computeClass = 0;  ///< index into classes
    };
    std::vector<Candidate> candidates;

    // A compute class: the candidates whose compute part lowers to
    // the same op lists (plan::lowerTrainingCompute). Everything else
    // that part reads is fixed for the whole sweep.
    using ClassKey = std::tuple<long long, long long, Recompute>;
    struct ComputeClass
    {
        size_t first = 0;  ///< its first candidate
        std::vector<plan::PlanStep> steps;  ///< op lists dropped
        std::vector<plan::StepEval> priced;
    };
    std::map<ClassKey, size_t> class_index;
    std::vector<ComputeClass> classes;

    for (long long tp = 1; tp <= sys.devicesPerNode; tp *= 2) {
        for (long long pp = 1;
             tp * pp <= sys.totalDevices() && pp <= model.numLayers;
             pp *= 2) {
            long long dp = sys.totalDevices() / (tp * pp);

            // The plain schedule, and the deepest interleaving: one
            // transformer layer per chunk.
            std::vector<long long> interleaves = {1};
            if (pp > 1 && model.numLayers / pp > 1)
                interleaves.push_back(model.numLayers / pp);

            for (long long micro : opts.microbatchSizes) {
                for (long long v : interleaves) {
                    ParallelConfig par;
                    par.dataParallel = dp;
                    par.tensorParallel = tp;
                    par.pipelineParallel = pp;
                    par.sequenceParallel = tp > 1;
                    par.microbatchSize = micro;
                    if (v > 1) {
                        par.schedule =
                            PipelineSchedule::Interleaved1F1B;
                        par.interleavedStages = v;
                    }
                    // One lint call replaces the hand-rolled
                    // divisibility checks: skip illegal mappings
                    // before touching memory or timing models.
                    count(opts.trace, "planner/mappings-enumerated");
                    if (!lint::isLegalMapping(model, sys, par,
                                              global_batch)) {
                        count(opts.trace, "planner/pruned-illegal");
                        continue;
                    }

                    for (Recompute r : opts.recomputeChoices) {
                        TrainingOptions topts = base;
                        topts.recompute = r;
                        for (int zero : opts.zeroStages) {
                            topts.memory.zeroStage = zero;

                            TrainingMemory mem =
                                trainingMemoryPerDevice(
                                    model, par, global_batch, topts);
                            if (mem.total() >
                                sys.device.dram().capacity) {
                                count(opts.trace, "planner/pruned-memory");
                                continue;
                            }
                            count(opts.trace, "planner/plans-evaluated");
                            const ClassKey key{tp, micro, r};
                            auto [it, added] = class_index.try_emplace(
                                key, classes.size());
                            if (added)
                                classes.push_back(
                                    {candidates.size(), {}, {}});
                            candidates.push_back(
                                Candidate{par, topts, mem, it->second});
                        }
                    }
                }
            }
        }
    }

    // Phase 2: price each compute class once. The classes are
    // independent pure functions, fanned out through the exec layer.
    // The candidates of a class need only the priced estimates and
    // the parts' scales, so the op lists are dropped.
    count(opts.trace, "planner/compute-classes", double(classes.size()));
    exec::parallelFor(
        static_cast<long long>(classes.size()), opts.threads,
        [&](long long k) {
            ComputeClass &cc = classes[static_cast<size_t>(k)];
            const Candidate &c = candidates[cc.first];
            plan::KernelPlan kp;
            kp.steps = plan::lowerTrainingCompute(model, c.parallel,
                                                  c.options);
            plan::EvaluatedPlan ep =
                plan::evaluatePlan(std::move(kp), sys);
            for (plan::PlanStep &st : ep.plan.steps)
                for (plan::ComputePart &part : st.parts)
                    part.ops = {};
            cc.steps = std::move(ep.plan.steps);
            cc.priced = std::move(ep.evals);
        });

    // Phase 3: map every candidate onto its class's priced compute
    // steps: lower and evaluate only the mapping part, then fold.
    // Results are written by slot in enumeration order, so the plans
    // vector (and the sort below, which is not stable) is
    // bit-identical to a serial run at any thread count. The model's
    // FLOPs per batch are the same for every candidate, and each
    // candidate's memory was computed during enumeration.
    const double model_flops = plan::modelFlopsPerBatch(
        model, global_batch, base.seqLength, base.precision);
    std::vector<TrainingPlan> plans = exec::parallelMap(
        static_cast<long long>(candidates.size()), opts.threads,
        [&](long long i) {
            const Candidate &c = candidates[static_cast<size_t>(i)];
            const ComputeClass &cc = classes[c.computeClass];
            plan::KernelPlan kp;
            kp.steps = cc.steps;
            plan::lowerTrainingMapping(model, sys, c.parallel,
                                       global_batch, c.options, kp);
            plan::EvaluatedPlan ep =
                plan::evaluatePlan(std::move(kp), sys, cc.priced);
            TrainingPlan plan;
            plan.parallel = c.parallel;
            plan.options = c.options;
            plan.report = plan::trainingReport(
                ep, plan::foldTraining(ep, nullptr), sys,
                base.precision, c.memory, model_flops);
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

std::vector<ServingPlan>
planServing(const TransformerConfig &model, const System &sys,
            const ServingPlannerOptions &opts)
{
    checkPositive(opts.maxBatch, "maxBatch");
    std::vector<long long> batches;
    for (long long b = 1; b <= opts.maxBatch; b *= 2)
        batches.push_back(b);

    // servingSweep's gate at TP 1, legal for any model; the loop
    // filters each TP choice.
    ServingOptions sopts = opts.serving;
    sopts.tensorParallel = 1;
    lint::enforce(
        lint::lintInferenceGate(model, sys, servingInference(sopts)));

    std::vector<ServingPlan> plans;
    for (long long tp : opts.tensorParallelChoices) {
        sopts.tensorParallel = tp;
        if (lint::lintInferenceMapping(model, sys, servingInference(sopts))
                .hasErrors()) {
            count(opts.trace, "planner/serving-tp-skipped");
            continue;
        }

        ServingPlan best;
        bool any = false;
        for (const ServingPoint &pt :
             servingSweepLinted(model, sys, sopts, batches)) {
            count(opts.trace, "planner/serving-points");
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
