/**
 * @file
 * Per-layer operator graphs for transformer forward, backward, prefill
 * and decode phases, already sharded for Megatron-style tensor
 * parallelism (Sec. 3.2) and optional sequence parallelism.
 *
 * The graph is a flat op list per layer: the transformer data flow is
 * sequential at this abstraction level (Sec. 1.1: "structural
 * regularity and almost static nature of the data flow ... allow
 * analytical modeling").
 */

#ifndef OPTIMUS_WORKLOAD_GRAPH_H
#define OPTIMUS_WORKLOAD_GRAPH_H

#include <string>
#include <vector>

#include "hw/device.h"
#include "roofline/estimate.h"
#include "roofline/gemm.h"
#include "workload/model_config.h"

namespace optimus {

/** Operator categories the estimator distinguishes. */
enum class OpKind {
    Gemm,            ///< tensor contraction (matrix engine)
    Softmax,         ///< row-wise softmax
    LayerNorm,       ///< row-wise normalization
    Elementwise,     ///< GELU / dropout / residual / bias
    FusedAttention,  ///< IO-aware fused attention (FlashAttention)
    Stream,          ///< raw byte/FLOP stream (embedding lookups, ...)
};

/** One operator of a layer graph, sized for a single device shard. */
struct Op
{
    std::string name;
    OpKind kind = OpKind::Gemm;

    // Gemm parameters.
    GemmShape gemm;
    long long count = 1;  ///< batched identical instances

    /**
     * Kernel launches charged for the op: 1 for a fully batched
     * kernel, numHeads for the per-head attention kernels of the
     * inference prefill phase (the paper's Table 4 accounting).
     */
    long long launchCount = 1;

    // Softmax / LayerNorm parameters.
    double rows = 0.0;
    double cols = 0.0;

    // Elementwise parameters.
    double elements = 0.0;
    double flopsPerElement = 1.0;

    // FusedAttention parameters: explicit work/traffic accounting
    // (the kernel keeps the s x s score matrix on chip).
    double fusedFlops = 0.0;
    double fusedDramBytes = 0.0;
    double fusedOnChipBytes = 0.0;  ///< L2-level traffic
    Precision fusedPrecision = Precision::FP16;

    // Stream parameters: explicit DRAM byte / FLOP totals.
    double streamBytes = 0.0;
    double streamFlops = 0.0;
    Precision streamPrecision = Precision::FP16;

    bool fused = false;   ///< fused into neighbour: no launch overhead
};

/** Parameters shared by the layer-graph builders. */
struct LayerGraphParams
{
    long long batch = 1;          ///< local (micro)batch size
    long long seq = 2048;         ///< tokens per sequence
    long long tensorParallel = 1; ///< TP degree
    /** Expert-parallel degree for MoE FFNs (experts sharded). */
    long long expertParallel = 1;
    /**
     * Context-parallel degree (ring attention): the sequence shards
     * across cp devices; each computes its queries against the full
     * key/value set, which circulates around the ring. Requires
     * flashAttention (ring attention is an IO-aware kernel).
     */
    long long contextParallel = 1;
    bool sequenceParallel = false;
    Precision precision = Precision::FP16;
    bool training = true;         ///< include dropout ops

    /**
     * Use IO-aware fused attention (FlashAttention, the paper's [6,7])
     * instead of the unfused QK^T / softmax / dropout / AV chain: the
     * quadratic score matrix never touches DRAM, trading extra FLOPs
     * in the backward pass for O(s^2) less memory traffic.
     */
    bool flashAttention = false;
};

/**
 * Forward op list for one transformer layer (one device's shard).
 * Input: lint::lintTrainingGate or lint::lintInferenceGate.
 */
std::vector<Op> layerForwardOps(const TransformerConfig &cfg,
                                const LayerGraphParams &p);

/**
 * Backward op list derived from the forward graph: each GEMM yields a
 * data-gradient GEMM and a weight-gradient GEMM; stream ops move
 * roughly the same bytes again. Input: lint::lintTrainingGate.
 */
std::vector<Op> layerBackwardOps(const TransformerConfig &cfg,
                                 const LayerGraphParams &p);

/**
 * Decode-phase op list for one layer generating one token per
 * sequence, attending over @p context cached tokens (KV cache,
 * Sec. 3.5). @p kv_precision sets the storage format of the cache
 * (KV-cache quantization serves fp16 models with fp8/int8 caches).
 * Input: lint::lintInferenceGate.
 */
std::vector<Op> decodeLayerOps(const TransformerConfig &cfg,
                               long long batch, long long context,
                               long long tensor_parallel,
                               Precision precision);
std::vector<Op> decodeLayerOps(const TransformerConfig &cfg,
                               long long batch, long long context,
                               long long tensor_parallel,
                               Precision precision,
                               Precision kv_precision);

/**
 * The decode-attention builder: the qk^T, attn-softmax and attn-v ops
 * of one layer generating one token per sequence over the KV cache,
 * which decodeLayerOps holds between kv-append and attn-out. They are
 * the only decode ops whose shape depends on the context. The struct
 * holds the inputs that stay fixed for a whole generation, so a
 * decode token range keeps one and builds each token's op from its
 * context. Building an op allocates nothing.
 */
struct DecodeAttention
{
    /** The three ops, in layer order. */
    enum Kind { QkT, Softmax, AttnV };
    static constexpr int kOps = 3;

    long long batch = 1;
    long long headsLocal = 1;    ///< query heads on one TP shard
    long long kvHeadsLocal = 1;  ///< KV heads on one TP shard
    long long headDim = 1;
    long long slidingWindow = 0; ///< TransformerConfig::slidingWindow
    Precision kvPrecision = Precision::FP16;

    /** Op @p kind of a token attending over @p context cached tokens. */
    Op op(Kind kind, long long context) const;
};

/**
 * The decode-attention inputs of @p cfg sharded @p tensor_parallel
 * ways, with the KV cache stored as @p kv_precision.
 * Input: lint::lintInferenceGate.
 */
DecodeAttention decodeAttention(const TransformerConfig &cfg,
                                long long batch,
                                long long tensor_parallel,
                                Precision kv_precision);

/** LM head ops for @p tokens positions (input: either lint gate). */
std::vector<Op> headOps(const TransformerConfig &cfg, long long tokens,
                        long long tensor_parallel, Precision precision);

/** Evaluate one op on a device via the roofline engines. */
KernelEstimate evaluateOp(const Device &dev, const Op &op);

/** Sum of evaluateOp over a list, preserving per-level accounting. */
KernelEstimate evaluateOps(const Device &dev, const std::vector<Op> &ops,
                           const std::string &label);

/** Arithmetic work of one op (FLOPs across all counts). */
double opFlops(const Op &op);

} // namespace optimus

#endif // OPTIMUS_WORKLOAD_GRAPH_H
