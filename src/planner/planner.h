/**
 * @file
 * Parallelization planner: enumerate valid DP/TP/PP/SP/EP mappings,
 * recomputation and interleaving choices for a model on a system,
 * discard those that overflow device memory, and rank the rest by
 * predicted performance — automating the workflow the paper's
 * Sec. 5.1 describes ("determine the best parallelism mapping or
 * training settings for an LLM model on a certain hardware system").
 */

#ifndef OPTIMUS_PLANNER_PLANNER_H
#define OPTIMUS_PLANNER_PLANNER_H

#include <vector>

#include "inference/serving.h"
#include "training/trainer.h"

namespace optimus {

class TraceSession;

/** The training planner's run options and search space. */
struct TrainingPlannerOptions
{
    /** Every candidate's options but recompute, ZeRO stage and trace. */
    TrainingOptions training;
    std::vector<Recompute> recomputeChoices = {
        Recompute::None, Recompute::Selective, Recompute::Full};
    std::vector<int> zeroStages = {0};
    std::vector<long long> microbatchSizes = {1};
    /** Keep at most this many ranked plans. */
    size_t keep = 10;

    /**
     * Worker threads for candidate evaluation (exec/exec.h): > 0 is
     * used as given, 0 defers to the OPTIMUS_THREADS environment
     * variable (default 1). Results are bit-identical at every
     * thread count.
     */
    int threads = 0;

    /**
     * Optional trace sink: counts candidate mappings enumerated
     * ("planner/mappings-enumerated"), mappings discarded by lint
     * ("planner/pruned-illegal") or memory ("planner/pruned-memory"),
     * candidates evaluated ("planner/plans-evaluated"), and the
     * distinct compute classes among them, (TP, microbatch,
     * recompute), whose compute steps are priced once each
     * ("planner/compute-classes").
     */
    TraceSession *trace = nullptr;
};

/** One viable plan with its predicted outcome. */
struct TrainingPlan
{
    ParallelConfig parallel;
    TrainingOptions options;
    TrainingReport report;
};

/**
 * Enumerate and rank training plans (fastest first): every power-of-two
 * TP within a node and PP, sequence parallelism whenever TP > 1, the
 * plain schedule and the deepest valid interleaving, each microbatch
 * size, recompute choice and ZeRO stage. Returns an empty vector when
 * nothing fits device memory. Gate: lint::lintModel, lint::lintSystem
 * and lint::lintTrainingOptions of opts.training per ZeRO stage.
 */
std::vector<TrainingPlan> planTraining(
    const TransformerConfig &model, const System &sys,
    long long global_batch, const TrainingPlannerOptions &opts = {});

/** Search-space switches for the serving planner. */
struct ServingPlannerOptions
{
    ServingOptions serving;           ///< prompt/generate/precision
    double maxInterTokenLatency = 0.0; ///< SLO seconds; 0 = unlimited
    long long maxBatch = 256;
    std::vector<long long> tensorParallelChoices = {1, 2, 4, 8};

    /**
     * Optional trace sink: counts serving points evaluated
     * ("planner/serving-points") and TP choices skipped
     * ("planner/serving-tp-skipped").
     */
    TraceSession *trace = nullptr;
};

/** One viable serving deployment. */
struct ServingPlan
{
    long long tensorParallel = 1;
    ServingPoint point;
    /** Generated tokens per second per device (cost efficiency). */
    double tokensPerSecondPerDevice = 0.0;
};

/**
 * Rank serving deployments meeting the latency SLO by per-device
 * throughput (best first). Empty when the model fits nowhere. Gate:
 * servingSweep's, at TP 1; lint::lintInferenceMapping filters TPs.
 */
std::vector<ServingPlan> planServing(const TransformerConfig &model,
                                     const System &sys,
                                     const ServingPlannerOptions &opts);

} // namespace optimus

#endif // OPTIMUS_PLANNER_PLANNER_H
