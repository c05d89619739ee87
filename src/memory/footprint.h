/**
 * @file
 * Per-device training memory footprint (paper Sec. 5.1 / Fig. 4):
 * model weights, gradients, optimizer states and activations under a
 * given parallelization mapping and recomputation strategy.
 */

#ifndef OPTIMUS_MEMORY_FOOTPRINT_H
#define OPTIMUS_MEMORY_FOOTPRINT_H

#include "parallel/config.h"
#include "workload/model_config.h"

namespace optimus {

struct TrainingOptions;

/** Byte costs per parameter of mixed-precision Adam training. */
inline constexpr double kWeightBytes = 2.0;    ///< fp16/bf16 weights
inline constexpr double kGradientBytes = 2.0;  ///< fp16 gradients
/** fp32 master copy + momentum + variance. */
inline constexpr double kOptimizerBytesPerParam = 12.0;

struct MemoryOptions
{
    /**
     * ZeRO-style sharding over the data-parallel group (Megatron's
     * distributed optimizer is stage 1): stage 1 shards optimizer
     * states, stage 2 also gradients, stage 3 also the weights
     * (which then must be all-gathered around each use).
     */
    int zeroStage = 0;
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
 * global batch @p global_batch under @p opts (input:
 * lint::lintTrainingGate).
 */
TrainingMemory trainingMemoryPerDevice(const TransformerConfig &cfg,
                                       const ParallelConfig &par,
                                       long long global_batch,
                                       const TrainingOptions &opts);

} // namespace optimus

#endif // OPTIMUS_MEMORY_FOOTPRINT_H
