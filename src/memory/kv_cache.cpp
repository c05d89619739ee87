#include "memory/kv_cache.h"

namespace optimus {

double
kvCacheBytes(const TransformerConfig &cfg, long long batch,
             long long context, Precision precision)
{
    double kv_width = double(cfg.numKvHeads) * double(cfg.headDim());
    // Sliding-window attention caps the cache at the window size.
    double kept = double(cfg.attentionSpan(context));
    return 2.0 * double(batch) * kept * precisionBytes(precision) *
           double(cfg.numLayers) * kv_width;
}

double
modelWeightBytes(const TransformerConfig &cfg, Precision precision)
{
    return cfg.parameterCount() * precisionBytes(precision);
}

} // namespace optimus
