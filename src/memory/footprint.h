/**
 * @file
 * Per-device training memory footprint (paper Sec. 5.1 / Fig. 4):
 * model weights, gradients, optimizer states and activations under a
 * given parallelization mapping and recomputation strategy.
 */

#ifndef OPTIMUS_MEMORY_FOOTPRINT_H
#define OPTIMUS_MEMORY_FOOTPRINT_H

#include "parallel/config.h"
#include "workload/activation.h"
#include "workload/model_config.h"

namespace optimus {

/** Byte costs per parameter for mixed-precision Adam training. */
struct MemoryOptions
{
    double weightBytes = 2.0;     ///< fp16/bf16 working weights
    double gradientBytes = 2.0;   ///< fp16 gradients
    /** fp32 master copy + momentum + variance. */
    double optimizerBytesPerParam = 12.0;
    double activationBytes = 2.0;

    /**
     * ZeRO-style sharding over the data-parallel group (Megatron's
     * distributed optimizer is stage 1): stage 1 shards optimizer
     * states, stage 2 also gradients, stage 3 also the weights
     * (which then must be all-gathered around each use).
     */
    int zeroStage = 0;

    /** Use FlashAttention's activation accounting. */
    bool flashAttention = false;
};

/** Per-device training memory breakdown, bytes. */
struct TrainingMemory
{
    double weights = 0.0;
    double gradients = 0.0;
    double optimizer = 0.0;
    double activations = 0.0;

    double total() const;
};

/** Parameters resident on the worst (embedding-holding) stage. */
double parametersPerDevice(const TransformerConfig &cfg,
                           const ParallelConfig &par);

/**
 * Memory footprint of the worst device for training @p cfg with
 * global batch @p global_batch and sequence length @p seq (input:
 * lint::lintTrainingGate).
 */
TrainingMemory trainingMemoryPerDevice(const TransformerConfig &cfg,
                                       const ParallelConfig &par,
                                       long long global_batch,
                                       long long seq,
                                       Recompute recompute,
                                       const MemoryOptions &opts = {});

} // namespace optimus

#endif // OPTIMUS_MEMORY_FOOTPRINT_H
