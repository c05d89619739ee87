/**
 * @file
 * Activation-memory accounting for training (paper Sec. 3.3).
 *
 * Implements the per-layer activation breakdown of Korthikanti et al.
 * ("Reducing activation recomputation in large transformer models",
 * the paper's [14]) and the two recomputation equations:
 *
 *   Eq. 1 (full):      A_full = N_ckp A_inp + L/N_ckp (A_tot - A_inp)
 *   Eq. 2 (selective): A_sel  = L (A_tot - (A_sm + A_do_mask + A_do_out))
 *
 * All sizes are bytes per device for one microbatch in flight.
 */

#ifndef OPTIMUS_WORKLOAD_ACTIVATION_H
#define OPTIMUS_WORKLOAD_ACTIVATION_H

#include "hw/precision.h"
#include "workload/model_config.h"

namespace optimus {

/** Activation recomputation strategy (Sec. 3.3). */
enum class Recompute {
    None,       ///< store everything
    Selective,  ///< recompute softmax/dropout region (Eq. 2)
    Full,       ///< checkpoint layer inputs, replay forward (Eq. 1)
};

/** Human-readable name ("none", "selective", "full"). */
const char *recomputeName(Recompute r);

/** Inverse of recomputeName; throws ConfigError on any other name. */
Recompute parseRecompute(const std::string &name);

/** Inputs to the activation accounting. */
struct ActivationParams
{
    long long microbatch = 1;
    long long seq = 2048;
    long long tensorParallel = 1;
    bool sequenceParallel = false;
    double activationBytes = 2.0;  ///< activationBytes(precision)

    /**
     * Fused IO-aware attention: the s x s score region is never
     * materialized, so the Eq. 2 terms shrink to the per-row softmax
     * statistics FlashAttention keeps for the backward pass.
     */
    bool flashAttention = false;
};

/** Bytes per activation element at @p p: max(1, precisionBytes(p)). */
double activationBytes(Precision p);

/**
 * Component breakdown of one layer's stored activations on one
 * device. The "scores" component is the softmax input + dropout mask
 * + dropout output removed by selective recomputation.
 */
struct ActivationBreakdown
{
    double attentionLinear = 0.0;  ///< QKV/out-proj inputs and outputs
    double scores = 0.0;           ///< 5 a s^2 b region (Eq. 2 terms)
    double mlp = 0.0;              ///< FFN activations
    double norms = 0.0;            ///< layer-norm inputs + dropouts
    double input = 0.0;            ///< layer input (checkpoint unit)

    /** Total stored bytes for the layer. */
    double total() const;
};

/** Per-layer activations under TP/SP (input: lint::lintTrainingGate). */
ActivationBreakdown layerActivations(const TransformerConfig &cfg,
                                     const ActivationParams &p);

/**
 * Stored activation bytes for @p layers layers under @p strategy.
 *
 * @param layers      layers resident on this device (L in Eqs. 1-2)
 * @param checkpoints N_ckp in Eq. 1; clamped to [1, layers]; a value
 *                    of 0 selects sqrt(L) checkpointing
 */
double activationMemory(const TransformerConfig &cfg,
                        const ActivationParams &p, long long layers,
                        Recompute strategy, long long checkpoints = 0);

/**
 * Extra forward work factor caused by recomputation: 1.0 for full
 * (the whole forward pass runs again), ~0 for none. Selective
 * recomputes only the cheap softmax/dropout region; we charge the
 * fraction of forward FLOPs in that region.
 */
double recomputeForwardFraction(const TransformerConfig &cfg,
                                const ActivationParams &p,
                                Recompute strategy);

} // namespace optimus

#endif // OPTIMUS_WORKLOAD_ACTIVATION_H
