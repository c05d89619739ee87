/**
 * @file
 * Transformer (decoder-only LLM) architecture description.
 *
 * Enough structure to derive parameter counts, per-layer op graphs,
 * activation sizes, and KV-cache sizes for GPT-class and Llama-class
 * models (Sec. 1.1 of the paper).
 */

#ifndef OPTIMUS_WORKLOAD_MODEL_CONFIG_H
#define OPTIMUS_WORKLOAD_MODEL_CONFIG_H

#include <string>

namespace optimus {

/** Feed-forward block flavour. */
enum class MlpKind {
    GeluTwoLayer,  ///< GPT style: h -> f (GELU) -> h
    SwiGlu,        ///< Llama style: gate+up (h -> f twice), down (f -> h)
};

/**
 * Tokens a query attends over at @p context cached tokens: all of
 * them, or at most @p sliding_window when it is positive.
 */
long long attentionSpan(long long context, long long sliding_window);

/** Decoder-only transformer architecture. */
struct TransformerConfig
{
    std::string name;
    long long numLayers = 0;
    long long hiddenSize = 0;
    long long numHeads = 0;
    long long numKvHeads = 0;   ///< < numHeads for GQA (Llama2-70B)
    long long ffnHidden = 0;
    long long vocabSize = 0;
    long long maxSeqLength = 2048;
    MlpKind mlp = MlpKind::GeluTwoLayer;

    /**
     * Mixture-of-experts: number of expert FFNs per layer (1 = dense)
     * and how many each token is routed to.
     */
    long long numExperts = 1;
    long long topK = 1;

    /**
     * Sliding-window attention (Mistral-style): each token attends to
     * at most this many preceding tokens, bounding both the KV cache
     * and the decode read traffic. 0 = full attention.
     */
    long long slidingWindow = 0;

    /** Attention span for a given context length. */
    long long attentionSpan(long long context) const
    {
        return optimus::attentionSpan(context, slidingWindow);
    }

    /** Per-head dimension. */
    long long headDim() const;

    /** True for a mixture-of-experts FFN. */
    bool isMoe() const { return numExperts > 1; }

    /** Total trainable parameters (embeddings shared with LM head). */
    double parameterCount() const;

    /** Parameters in one transformer layer. */
    double layerParameterCount() const;

    /** Attention + norm parameters of one layer (expert-independent). */
    double attentionParameterCount() const;

    /** FFN parameters of ONE expert (dense: the single FFN). */
    double expertParameterCount() const;

    /** Parameters in the (tied) embedding table. */
    double embeddingParameterCount() const;

    /** Validate invariants; throws ConfigError on violation. */
    void validate() const;
};

} // namespace optimus

#endif // OPTIMUS_WORKLOAD_MODEL_CONFIG_H
