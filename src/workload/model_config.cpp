#include "workload/model_config.h"

#include <algorithm>

#include "lint/lint.h"
#include "util/error.h"

namespace optimus {

long long
TransformerConfig::headDim() const
{
    return hiddenSize / numHeads;
}

long long
attentionSpan(long long context, long long sliding_window)
{
    if (sliding_window <= 0)
        return context;
    return std::min(context, sliding_window);
}

double
TransformerConfig::attentionParameterCount() const
{
    const double h = double(hiddenSize);
    const double hd = double(headDim());
    const double kvh = double(numKvHeads);
    // Attention: Q is h x h; K and V are h x (kvh * hd); output h x h;
    // plus the two layer-norms (gain + bias) and, for MoE, the router.
    double attn = h * h + 2.0 * h * kvh * hd + h * h + 4.0 * h;
    if (isMoe())
        attn += h * double(numExperts);
    return attn;
}

double
TransformerConfig::expertParameterCount() const
{
    const double h = double(hiddenSize);
    const double f = double(ffnHidden);
    return (mlp == MlpKind::SwiGlu) ? 3.0 * h * f : 2.0 * h * f;
}

double
TransformerConfig::layerParameterCount() const
{
    return attentionParameterCount() +
           double(numExperts) * expertParameterCount();
}

double
TransformerConfig::embeddingParameterCount() const
{
    return double(vocabSize) * double(hiddenSize) +
           double(maxSeqLength) * double(hiddenSize);
}

double
TransformerConfig::parameterCount() const
{
    return double(numLayers) * layerParameterCount() +
           embeddingParameterCount() + 2.0 * double(hiddenSize);
}

void
TransformerConfig::validate() const
{
    lint::enforce(lint::lintModel(*this));
}

} // namespace optimus
