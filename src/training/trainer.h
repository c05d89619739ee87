/**
 * @file
 * End-to-end distributed training time model (paper Secs. 3-5).
 *
 * Combines the hierarchical roofline per-kernel estimates with the
 * Megatron mapping: per-microbatch layer time (forward, backward,
 * recomputation), TP/SP collectives, pipeline bubbles and p2p
 * transfers, the data-parallel gradient all-reduce, and the optimizer
 * step. Produces the per-batch training time validated in Table 1 and
 * the breakdowns behind Figs. 5-7.
 */

#ifndef OPTIMUS_TRAINING_TRAINER_H
#define OPTIMUS_TRAINING_TRAINER_H

#include "comm/collective.h"
#include "hw/system.h"
#include "memory/footprint.h"
#include "parallel/config.h"
#include "roofline/estimate.h"
#include "workload/activation.h"
#include "workload/model_config.h"

namespace optimus {

class TraceSession;

/** Tunables of the training evaluation. */
struct TrainingOptions
{
    Precision precision = Precision::FP16;
    Recompute recompute = Recompute::Full;
    long long seqLength = 2048;
    CollectiveAlgorithm collectiveAlgorithm = CollectiveAlgorithm::Auto;
    /** Fraction of the DP gradient all-reduce hidden under backward. */
    double dpOverlapFraction = 0.0;
    /**
     * Fraction of the TP/SP collectives overlapped with compute
     * (async tensor parallelism / comm-gemm overlap).
     */
    double tpOverlapFraction = 0.0;
    /** IO-aware fused attention kernels (paper's [6,7]). */
    bool flashAttention = false;
    MemoryOptions memory = {};  ///< ZeRO stage

    /**
     * Optional trace sink (trace/trace.h). When set to an enabled
     * session, the evaluator records a span for every modeled event
     * (per-microbatch per-layer compute, collectives, p2p hops,
     * bubble, optimizer) whose per-category sums exactly reproduce
     * the returned TrainingBreakdown, plus per-kernel detail spans.
     * Null (the default) costs nothing.
     */
    TraceSession *trace = nullptr;
};

/** Time breakdown per global batch, seconds. */
struct TrainingBreakdown
{
    double forward = 0.0;
    double backward = 0.0;
    double recompute = 0.0;
    double embedding = 0.0;  ///< input embedding + LM head + loss
    double tpComm = 0.0;     ///< tensor/sequence-parallel collectives
    double cpComm = 0.0;     ///< ring-attention KV exchange
    double epComm = 0.0;     ///< MoE all-to-all dispatch/combine
    double ppComm = 0.0;     ///< pipeline p2p transfers
    double dpComm = 0.0;     ///< gradient all-reduce (exposed part)
    double bubble = 0.0;     ///< pipeline idle time
    double optimizer = 0.0;  ///< weight update

    /** Pure device-compute time. */
    double compute() const;
    /** All network time. */
    double communication() const;
    /** The paper's "Other": weight update + bubble. */
    double other() const;
    /** Per-batch total. */
    double total() const;
};

/** Full result of a training evaluation. */
struct TrainingReport
{
    TrainingBreakdown time;
    double timePerBatch = 0.0;
    TrainingMemory memory;
    long long microbatches = 0;
    double bubbleFraction = 0.0;

    /** Model FLOPs per batch (fwd+bwd, no recompute), whole system. */
    double modelFlops = 0.0;
    /** Model FLOP utilization against the system matrix peak. */
    double mfu = 0.0;

    /** Per-layer per-microbatch device estimates, for inspection. */
    KernelEstimate layerForward;
    KernelEstimate layerBackward;
};

/**
 * Evaluate training of @p cfg on @p sys under @p par (gate:
 * lint::lintTrainingGate).
 *
 * @param global_batch  sequences per optimizer step
 */
TrainingReport evaluateTraining(const TransformerConfig &cfg,
                                const System &sys,
                                const ParallelConfig &par,
                                long long global_batch,
                                const TrainingOptions &opts = {});

} // namespace optimus

#endif // OPTIMUS_TRAINING_TRAINER_H
