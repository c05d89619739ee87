/**
 * @file
 * KV-cache and weight memory for inference (paper Sec. 3.5):
 *   KV bytes = 2 * batch * context * precision * layers * kv_width
 * where kv_width generalizes the embedding dimension to grouped-query
 * attention (numKvHeads * headDim).
 */

#ifndef OPTIMUS_MEMORY_KV_CACHE_H
#define OPTIMUS_MEMORY_KV_CACHE_H

#include "hw/precision.h"
#include "workload/model_config.h"

namespace optimus {

/**
 * Total KV-cache bytes for @p batch sequences of @p context tokens
 * (input: lint::lintInferenceGate).
 */
double kvCacheBytes(const TransformerConfig &cfg, long long batch,
                    long long context, Precision precision);

/** Total model weight bytes at @p precision (input: lint::lintModel). */
double modelWeightBytes(const TransformerConfig &cfg,
                        Precision precision);

} // namespace optimus

#endif // OPTIMUS_MEMORY_KV_CACHE_H
