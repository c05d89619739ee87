/**
 * @file
 * The kernel-plan IR: one lowering pass, one evaluator, one folder.
 *
 * The paper's core abstraction is a single pipeline — (model, system,
 * mapping) -> per-kernel roofline estimates -> folded time/memory/
 * bound reports — and this module is that pipeline made explicit.
 * `lowerTraining` / `lowerInference` turn a configuration into a flat,
 * deterministic KernelPlan: an ordered list of PlanSteps (compute op
 * lists, collectives with an explicit GroupScope, and synthetic steps
 * for the pipeline bubble and the optimizer), each tagged with a
 * stable identity (lane/name), phase, repeat counts and breakdown
 * category. `evaluatePlan` maps every step through the existing
 * roofline and collective models, and the folders derive *all*
 * downstream artifacts from that one evaluated stream:
 *
 *  - `foldTraining` / `foldInference` produce the TrainingBreakdown /
 *    PhaseReport aggregates and, when a TraceSession is supplied, the
 *    trace spans whose per-category sums reproduce them;
 *  - `kernelAggregates` produces the per-identity RunRecord kernel
 *    rows (report/record.h) from the same span stream;
 *  - `summarizePlan` / `planJson` / `planCsv` expose the plan itself
 *    (the `optimus_cli kernels` subcommand).
 *
 * evaluateTraining / evaluateInference are thin drivers over
 * runTraining / runInference (lower -> evaluate -> fold plus the
 * memory/MFU/latency tails); they contain no per-op folding of their
 * own. See docs/ARCHITECTURE.md.
 */

#ifndef OPTIMUS_PLAN_PLAN_H
#define OPTIMUS_PLAN_PLAN_H

#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "comm/collective.h"
#include "hw/system.h"
#include "inference/engine.h"
#include "training/trainer.h"
#include "util/json.h"
#include "workload/graph.h"

namespace optimus {

class TraceSession;

namespace plan {

/** What a PlanStep models. */
enum class StepKind {
    Compute,     ///< one or more op lists through the roofline engines
    Collective,  ///< a communication collective (comm/collective.h)
    Synthetic,   ///< derived time: pipeline bubble, optimizer step
};

/** Synthetic step flavors. */
enum class SyntheticKind {
    Bubble,     ///< busy-so-far * bubbleFraction (value = fraction)
    Optimizer,  ///< value bytes / DRAM effective bandwidth
};

/** How a multi-part compute step combines its parts. */
enum class PartCombine {
    Sum,  ///< parts execute back to back
    Max,  ///< parts live on different pipeline stages; worst one counts
};

/** One op list inside a compute step, with a time scale factor. */
struct ComputePart
{
    std::string label;    ///< evaluateOps label for multi-op lists
    std::vector<Op> ops;
    double scale = 1.0;   ///< e.g. recompute fraction, fwd+bwd factor
};

/**
 * One step of a lowered plan. The identity (lane, name) is stable
 * across runs of the same configuration — it is the key the diff
 * engine and the trace lanes agree on.
 */
struct PlanStep
{
    StepKind kind = StepKind::Compute;
    std::string lane;      ///< trace lane, e.g. "stage0/comm"
    std::string name;      ///< event label, e.g. "tp-allreduce"
    /** Breakdown category; empty for bound-bucketed compute steps. */
    std::string category;
    std::string phase;     ///< "train" | "prefill" | "decode"

    /**
     * Resolve the category from the evaluated bound instead:
     * phase + "-" + {gemm-compute | gemm-memory | other} (the
     * inference PhaseReport buckets). These single-op steps' instance
     * spans carry full kernel detail.
     */
    bool bucketByBound = false;

    // ---- Repeat structure -------------------------------------------
    long long repeatMicrobatch = 1;
    long long repeatLayer = 1;
    bool coordMicrobatch = false;  ///< stamp span.microbatch
    /**
     * Stamp span.layer: one span per layer. Without it, one span
     * covers all repeatLayer instances (duration, FLOPs and traffic
     * scaled by repeatLayer) — the decode-lane aggregation.
     */
    bool coordLayer = false;
    /** First decode token index (span.step); -1 outside decode. */
    long long step = -1;
    /**
     * Token range: the step covers tokens step .. step+repeatToken-1
     * and stands for repeatToken copies of itself, one per token.
     * Consecutive steps with the same (step, repeatToken) form a
     * group that the folders walk token-major: for each token, each
     * step of the group in plan order. The totals, trace spans and
     * kernel aggregates are the ones a plan with one step per
     * (token, op) would produce.
     */
    long long repeatToken = 1;

    /**
     * Additionally emit one per-op kernel-detail span (category
     * "kernel") per op of parts[0] on this lane (the trainer's
     * "kernels/fwd" lanes).
     */
    std::string detailLane;

    // ---- Compute payload --------------------------------------------
    std::vector<ComputePart> parts;
    PartCombine combine = PartCombine::Sum;
    /**
     * A context-dependent token-range step: token t of the range is
     * attention.op(attentionOp, context + t), built and priced one
     * token at a time in place of parts (which is then empty). False
     * on every other step, whose parts are priced once and shared by
     * all repeatToken tokens.
     */
    bool contextDependent = false;
    DecodeAttention attention;  ///< fixed inputs of the per-token op
    DecodeAttention::Kind attentionOp = DecodeAttention::QkT;
    long long context = 0;      ///< context of the range's first token

    // ---- Collective payload -----------------------------------------
    CollectiveKind collective = CollectiveKind::AllReduce;
    double volume = 0.0;       ///< bytes per call
    long long groupSize = 1;
    GroupScope scope = GroupScope::IntraNode;
    CollectiveAlgorithm algorithm = CollectiveAlgorithm::Auto;
    double callsPerInstance = 1.0;   ///< e.g. collectives per layer
    double exposedFraction = 1.0;    ///< 1 - overlapped fraction

    // ---- Synthetic payload ------------------------------------------
    SyntheticKind synthetic = SyntheticKind::Bubble;
    double syntheticValue = 0.0;     ///< fraction (Bubble) or bytes
};

/** A lowered, deterministic plan for one evaluation. */
struct KernelPlan
{
    std::string phase;  ///< "training" | "inference"
    std::vector<PlanStep> steps;
    /** Trace lanes in registration order (stable lane indices). */
    std::vector<std::string> lanes;
    /** counterAdd(name, value) pairs recorded before any span. */
    std::vector<std::pair<std::string, double>> counters;

    long long microbatches = 1;
    double bubbleFraction = 0.0;
};

/**
 * The evaluator's one memo, owned by the caller: op-list roofline
 * evaluations shared across plans, keyed by a binary
 * signature: the bit patterns of every Op field evaluateOp reads, in
 * fixed-size records, plus the device name. Thread-safe; entries are
 * deterministic (any racing computation of the same key produces the
 * identical estimate), so sharing a cache across exec-layer workers
 * cannot change results. Share one cache only across evaluations
 * against the same System — the key does not hash the device
 * parameters.
 */
class EvalCache
{
  public:
    /** Copy the entry for @p key into @p out; false when absent. */
    bool lookup(const std::string &key, KernelEstimate *out) const;
    /** Insert (first writer wins; later identical inserts are no-ops). */
    void insert(const std::string &key, const KernelEstimate &est);
    /** Number of cached op-list evaluations. */
    size_t size() const;

  private:
    mutable std::mutex mu_;
    std::unordered_map<std::string, KernelEstimate> entries_;
};

/** Evaluator knobs. */
struct EvaluateOptions
{
    /**
     * Also evaluate per-op kernel detail (detailLane spans). The
     * folders force this on when a TraceSession is attached or when
     * RunRecord kernel aggregates are wanted.
     */
    bool detail = false;
    EvalCache *cache = nullptr;  ///< optional shared memo
};

/** The inference PhaseReport kernel buckets. */
enum class BoundBucket { GemmCompute, GemmMemory, Other };

/**
 * What the folders, summarizePlan and the trace read of one token's
 * estimate in a context-dependent step (its bytes per memory level
 * live in StepEval::tokenBytes).
 */
struct TokenCost
{
    double time = 0.0;      ///< seconds per (microbatch, layer) instance
    double overhead = 0.0;  ///< kernel-launch overhead
    double flops = 0.0;
    double dramTime = 0.0;  ///< DRAM transfer time (memTimePerLevel[0])
    int boundLevel = -1;    ///< KernelEstimate::boundLevel
    /** Bound bucket (bucketByBound steps; Other otherwise). */
    BoundBucket bucket = BoundBucket::Other;
};

/** Evaluation result of one step. */
struct StepEval
{
    /**
     * Seconds per (microbatch, layer) instance of one token; the mean
     * over the range for a contextDependent step.
     */
    double perInstance = 0.0;
    /** All instances of all tokens (or the synthetic value). */
    double total = 0.0;
    /**
     * Resolved (bucketByBound applied); a contextDependent step's
     * first token.
     */
    std::string category;
    /** The bound bucket behind a bucketByBound category. */
    BoundBucket bucket = BoundBucket::Other;
    std::vector<KernelEstimate> partEsts;  ///< one per ComputePart
    std::vector<KernelEstimate> opEsts;    ///< per-op detail of parts[0]
    /** One per token of a contextDependent step; empty otherwise. */
    std::vector<TokenCost> tokens;
    /**
     * Bytes per memory level of those tokens, token-major: token t's
     * level l is at t * levels + l, with levels the device's
     * mem.size().
     */
    std::vector<double> tokenBytes;
    CollectiveResult coll;     ///< collective steps only
};

/** A plan with every step evaluated on one system. */
struct EvaluatedPlan
{
    KernelPlan plan;
    std::vector<StepEval> evals;
    Device dev;  ///< the device the steps were evaluated on
};

// ---- Lower -----------------------------------------------------------

/** Lower a training configuration (gate: lint::lintTrainingGate). */
KernelPlan lowerTraining(const TransformerConfig &cfg, const System &sys,
                         const ParallelConfig &par, long long global_batch,
                         const TrainingOptions &opts);

/**
 * The compute part of lowerTraining: the layer-fwd, layer-bwd,
 * layer-recompute (when the strategy recomputes anything) and
 * embed+head steps, with unit repeat counts and a Sum combine. For a
 * fixed model, precision, sequence length and flash-attention choice
 * it depends only on the compute class: TP, SP, EP, CP, microbatch
 * and recompute. Input: lint::lintTrainingGate.
 */
std::vector<PlanStep> lowerTrainingCompute(const TransformerConfig &cfg,
                                           const ParallelConfig &par,
                                           const TrainingOptions &opts);

/**
 * The mapping part of lowerTraining, applied to @p kp whose steps are
 * a compute part: stamps the candidate's repeat counts (microbatches,
 * layers per stage) and the embed+head PartCombine on those steps,
 * then appends the TP/CP/EP collectives, pp-p2p, the pipeline bubble,
 * the DP/ZeRO collectives and the optimizer step, and sets the plan's
 * lanes, counters and schedule fields. Input: lint::lintTrainingGate.
 */
void lowerTrainingMapping(const TransformerConfig &cfg, const System &sys,
                          const ParallelConfig &par,
                          long long global_batch,
                          const TrainingOptions &opts, KernelPlan &kp);

/** Lower an inference configuration (gate: lint::lintInferenceGate). */
KernelPlan lowerInference(const TransformerConfig &cfg, const System &sys,
                          const InferenceOptions &opts);

/**
 * Append the prefill steps to @p steps: the layer ops (repeated over
 * the L layers), the TP all-reduce and the first token's sampling
 * head. Input: lint::lintInferenceGate.
 */
void lowerPrefill(const TransformerConfig &cfg, const System &sys,
                  const InferenceOptions &opts,
                  std::vector<PlanStep> &steps);

/**
 * Append the decode steps of generated tokens @p first ..
 * first+count-1 (0-based) to @p steps, one token-range step per op:
 * the decodeLayerOps (each aggregated over the L layers), the
 * per-layer TP all-reduce scoped by groupScopeFor, and the sampling
 * head. Token t attends over context opts.promptLength + t + 1. With
 * count > 1 the three DecodeAttention steps are contextDependent and
 * keep only the builder and their first token's context; every other
 * step is context-invariant and is lowered once. With count == 1
 * every step is a plain one-token step.
 * lowerInference calls it once for all generated tokens; the serving
 * and speculative models price one decode step with count == 1.
 * Input: lint::lintInferenceGate.
 */
void lowerDecodeTokens(const TransformerConfig &cfg, const System &sys,
                       const InferenceOptions &opts, long long first,
                       long long count, std::vector<PlanStep> &steps);

// ---- Evaluate --------------------------------------------------------

/**
 * Map every step through the roofline / collective models. A
 * contextDependent step builds and prices each token's op and keeps
 * its TokenCost and bytes; every other step is priced once.
 * The plan keeps no memo of its own: compute parts are memoized only
 * through the caller's opts.cache, when one is given.
 */
EvaluatedPlan evaluatePlan(KernelPlan plan, const System &sys,
                           const EvaluateOptions &opts = {});

/**
 * evaluatePlan for a plan whose first priced.size() steps are compute
 * steps priced earlier: step i < priced.size() takes its part
 * estimates, per-op detail and bound bucket from priced[i] (an
 * evaluation of a step with the same parts) and reads only the scales
 * of its own parts, so their op lists may be empty. Its combine and
 * repeat counts, and every later step, go through the same step loop
 * as in evaluatePlan. The training planner prices each compute class
 * once this way.
 */
EvaluatedPlan evaluatePlan(KernelPlan plan, const System &sys,
                           const std::vector<StepEval> &priced);

/**
 * Bound bucket of a bucketByBound kernel: GemmCompute or GemmMemory
 * for a GEMM or fused-attention op by its evaluated bound, Other for
 * every other op.
 */
BoundBucket boundBucket(const Op &op, const KernelEstimate &est);

/**
 * Category of a bucketByBound step of @p phase in bucket @p b:
 * phase + "-" + {gemm-compute | gemm-memory | other}.
 */
std::string boundCategory(const std::string &phase, BoundBucket b);

// ---- Fold ------------------------------------------------------------

/** Training aggregates folded from an evaluated plan. */
struct FoldedTraining
{
    TrainingBreakdown time;
    KernelEstimate layerForward;   ///< "layer-fwd" step estimate
    KernelEstimate layerBackward;  ///< "layer-bwd" step estimate
};

/** Inference aggregates folded from an evaluated plan. */
struct FoldedInference
{
    PhaseReport prefill;
    PhaseReport decode;
};

/**
 * Fold a training plan into its breakdown; when @p trace is a live
 * session, also emit the full span stream (lanes registered in plan
 * order, counters first) whose per-category sums reproduce the
 * breakdown.
 */
FoldedTraining foldTraining(const EvaluatedPlan &ep, TraceSession *trace);

/** Inference analogue of foldTraining. */
FoldedInference foldInference(const EvaluatedPlan &ep,
                              TraceSession *trace);

/**
 * Aggregate of every kernel-detail span sharing one stable identity.
 * The key is "<lane>/<name>" (e.g. "kernels/fwd/qkT-gemm",
 * "decode/attn-v"), which is invariant across runs of the same
 * config, so the diff engine can match kernels between two records.
 * This is the RunRecord kernel row (report::KernelStat names it).
 */
struct KernelAggregate
{
    std::string key;
    std::string category;
    long long count = 0;      ///< spans folded into this aggregate
    double time = 0.0;        ///< summed modeled seconds
    double flops = 0.0;       ///< summed arithmetic work
    double dramBytes = 0.0;   ///< summed DRAM traffic
    double overhead = 0.0;    ///< summed launch overhead
    /** Time-dominant bound class ("compute", "DRAM", "L2", ...). */
    std::string bound;
};

/**
 * Per-identity kernel aggregates, folded from the span stream of an
 * evaluated plan (requires a detail evaluation). Sorted by key.
 */
std::vector<KernelAggregate> kernelAggregates(const EvaluatedPlan &ep);

// ---- Drivers ---------------------------------------------------------

/** Result of a full training run over the plan pipeline. */
struct TrainingRun
{
    TrainingReport report;
    EvaluatedPlan plan;
};

/** Result of a full inference run over the plan pipeline. */
struct InferenceRun
{
    InferenceReport report;
    EvaluatedPlan plan;
};

/**
 * Model FLOPs of one training batch: forward and backward, without
 * recomputation.
 */
double modelFlopsPerBatch(const TransformerConfig &cfg,
                          long long global_batch, long long seq,
                          Precision precision);

/**
 * The report of an evaluated training plan: its folded breakdown and
 * layer estimates plus the memory / model-FLOPs / MFU tail.
 * @p memory is the mapping's trainingMemoryPerDevice and
 * @p model_flops the batch's modelFlopsPerBatch. runTraining and the
 * training planner both build their reports here.
 */
TrainingReport trainingReport(const EvaluatedPlan &ep, FoldedTraining f,
                              const System &sys, Precision precision,
                              const TrainingMemory &memory,
                              double model_flops);

/**
 * lower -> evaluate -> fold, plus the memory / model-FLOPs / MFU tail.
 * @p eval carries the evaluator knobs: `detail` forces per-op
 * kernel-detail evaluation (implied by an attached trace session) and
 * `cache` shares a memo across runs.
 */
TrainingRun runTraining(const TransformerConfig &cfg, const System &sys,
                        const ParallelConfig &par, long long global_batch,
                        const TrainingOptions &opts,
                        EvaluateOptions eval = {});

/** Inference analogue of runTraining (KV/weight footprint tail). */
InferenceRun runInference(const TransformerConfig &cfg, const System &sys,
                          const InferenceOptions &opts,
                          EvaluateOptions eval = {});

// ---- Plan export (optimus_cli kernels) -------------------------------

/** One row of the plan summary / JSON dump. */
struct StepSummary
{
    std::string lane;
    std::string name;
    std::string category;
    std::string kind;    ///< "compute" | "collective" | "synthetic"
    /** repeatMicrobatch * repeatLayer * repeatToken */
    long long count = 1;
    double perInstance = 0.0;
    double total = 0.0;
    double flops = 0.0;      ///< across all instances
    double dramBytes = 0.0;  ///< across all instances
    double overhead = 0.0;   ///< across all instances
    /** Bound class (compute), scope (collective), or empty. */
    std::string detail;
};

/**
 * Summarize every step of an evaluated plan, in plan order: one row
 * per step, so one row per decode op for a token range. A
 * contextDependent row sums its work over the tokens; its category
 * and detail are those of the range's first token.
 */
std::vector<StepSummary> summarizePlan(const EvaluatedPlan &ep);

/** Schema "optimus-kernel-plan" version 1 document. */
JsonValue planJson(const EvaluatedPlan &ep);

/** Serialize summaries (the body of planJson). */
JsonValue summariesToJson(const std::vector<StepSummary> &steps,
                          const std::string &phase);

/** Parse a planJson document back into summaries (round trip). */
std::vector<StepSummary> summariesFromJson(const JsonValue &doc,
                                           std::string *phase = nullptr);

/** RFC-4180 CSV of the step summaries (header + one row per step). */
std::string planCsv(const EvaluatedPlan &ep);

} // namespace plan
} // namespace optimus

#endif // OPTIMUS_PLAN_PLAN_H
