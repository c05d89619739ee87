/**
 * @file
 * Steady-state serving model on top of the inference engine.
 *
 * The paper's Sec. 6 analyzes single-request latency and notes that
 * "larger batch sizes improve inference throughput but at the cost of
 * latency". This extension turns that observation into a serving
 * calculator: for a continuously batched decode loop it reports the
 * sustainable token/request throughput, time-to-first-token, and the
 * largest batch the KV cache allows — plus dollars per million tokens
 * when combined with the energy/TCO module.
 */

#ifndef OPTIMUS_INFERENCE_SERVING_H
#define OPTIMUS_INFERENCE_SERVING_H

#include <vector>

#include "energy/energy.h"
#include "inference/engine.h"

namespace optimus {

/** Serving scenario description. */
struct ServingOptions
{
    Precision precision = Precision::FP16;
    long long tensorParallel = 1;
    long long promptLength = 512;
    long long generateLength = 256;
    bool flashAttention = true;
    CollectiveAlgorithm collectiveAlgorithm = CollectiveAlgorithm::Auto;

    /** KV-cache storage precision (quantized caches serve more). */
    Precision kvPrecision = Precision::FP16;
};

/** Steady-state operating point at one batch size. */
struct ServingPoint
{
    long long batch = 0;
    double decodeStepTime = 0.0;     ///< one token for every sequence
    double tokensPerSecond = 0.0;    ///< generated tokens, system-wide
    double requestsPerSecond = 0.0;  ///< completed generations
    double timeToFirstToken = 0.0;   ///< prefill latency at this batch
    double interTokenLatency = 0.0;  ///< per-sequence token spacing
    double kvCacheBytesPerDevice = 0.0;
    bool fits = true;
};

/**
 * Evaluate one steady-state batch size (decode at the mean context
 * length; prefill work amortized into the step time). Same as
 * servingSweep over {batch}.
 */
ServingPoint evaluateServingPoint(const TransformerConfig &cfg,
                                  const System &sys,
                                  const ServingOptions &opts,
                                  long long batch);

/** The batch-1 inference a serving sweep lints and prices prefill with. */
InferenceOptions servingInference(const ServingOptions &opts);

/**
 * Evaluate a sweep of batch sizes, one point per entry of @p batches.
 * Gate: lint::lintInferenceGate on servingInference(@p opts) at the
 * smallest batch. Every serving entry point goes through here, or
 * (planServing) enforces the same gate and calls servingSweepLinted.
 */
std::vector<ServingPoint> servingSweep(const TransformerConfig &cfg,
                                       const System &sys,
                                       const ServingOptions &opts,
                                       const std::vector<long long> &
                                           batches);

/**
 * servingSweep after its gate: the batch-1 prefill is priced once,
 * then one decode step (plan::lowerDecodeTokens) per batch.
 */
std::vector<ServingPoint> servingSweepLinted(
    const TransformerConfig &cfg, const System &sys,
    const ServingOptions &opts, const std::vector<long long> &batches);

/**
 * Largest power-of-two batch whose weights + KV cache fit device
 * memory, with its operating point.
 */
ServingPoint maxThroughputPoint(const TransformerConfig &cfg,
                                const System &sys,
                                const ServingOptions &opts,
                                long long batch_limit = 256);

/** Cost inputs for dollars-per-token accounting. */
struct ServingCostModel
{
    TcoModel tco;
    EnergyModel energy;
};

/**
 * Serving cost in USD per million generated tokens at an operating
 * point: amortized hardware for the TP group plus electricity.
 */
double costPerMillionTokens(const ServingOptions &opts,
                            const ServingPoint &point,
                            const ServingCostModel &cost = {});

} // namespace optimus

#endif // OPTIMUS_INFERENCE_SERVING_H
