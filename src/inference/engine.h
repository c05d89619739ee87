/**
 * @file
 * LLM inference latency model (paper Secs. 3.5, 4.3, 6): prefill
 * (summarization) phase plus auto-regressive decode with a KV cache,
 * tensor parallelism with latency-optimized collectives, and per-GEMM
 * bound-type analysis (Table 4, Fig. 8).
 */

#ifndef OPTIMUS_INFERENCE_ENGINE_H
#define OPTIMUS_INFERENCE_ENGINE_H

#include <string>
#include <vector>

#include "comm/collective.h"
#include "hw/system.h"
#include "roofline/estimate.h"
#include "workload/model_config.h"

namespace optimus {

class TraceSession;

/** Inference scenario description. */
struct InferenceOptions
{
    Precision precision = Precision::FP16;
    long long tensorParallel = 1;

    /**
     * Pipeline parallelism for models beyond one node's memory: the
     * layers split across pp stages; each token traverses every stage
     * (latency adds the inter-stage hops; memory divides by pp).
     */
    long long pipelineParallel = 1;
    long long batch = 1;
    long long promptLength = 200;   ///< summarization tokens
    long long generateLength = 200; ///< auto-regressive tokens
    CollectiveAlgorithm collectiveAlgorithm = CollectiveAlgorithm::Auto;

    /** Fused IO-aware attention for the prefill phase. */
    bool flashAttention = false;

    /**
     * Storage precision of the KV cache (KV-cache quantization):
     * serving an fp16 model with an fp8 cache halves both the cache
     * footprint and the attention read traffic of long contexts.
     */
    Precision kvPrecision = Precision::FP16;

    /**
     * Optional trace sink (trace/trace.h). When set to an enabled
     * session, the evaluator records a per-kernel span for every
     * modeled prefill/decode op (FLOPs, traffic, bound type) and the
     * TP/PP communication; per-category span sums exactly reproduce
     * the PhaseReport fields. Null (the default) costs nothing.
     */
    TraceSession *trace = nullptr;
};

/** One row of the per-GEMM bound table (paper Table 4). */
struct GemmBoundRow
{
    std::string name;
    double time = 0.0;       ///< seconds (per batched call)
    std::string boundType;   ///< "compute", "DRAM", "L2", ...
    double flops = 0.0;
    double dramBytes = 0.0;
};

/** Cost of one inference phase. */
struct PhaseReport
{
    double time = 0.0;             ///< total phase latency
    double computeBoundGemmTime = 0.0; ///< GEMM time, compute-bound part
    double memoryBoundGemmTime = 0.0;  ///< GEMM time, memory-bound part
    double otherKernelTime = 0.0;  ///< softmax / norms / elementwise
    double commTime = 0.0;         ///< TP collectives
    double overheadTime = 0.0;     ///< kernel launches
    double memoryTime = 0.0;       ///< DRAM transfer time (all kernels)
};

/** Full inference evaluation result. */
struct InferenceReport
{
    PhaseReport prefill;
    PhaseReport decode;
    double totalLatency = 0.0;

    double kvCacheBytes = 0.0;   ///< total, end of generation
    double weightBytes = 0.0;    ///< total model weights
    bool fitsDeviceMemory = true;
};

/** Evaluate end-to-end inference latency (gate: lintInferenceGate). */
InferenceReport evaluateInference(const TransformerConfig &cfg,
                                  const System &sys,
                                  const InferenceOptions &opts);

/**
 * Per-GEMM bound-type table for the prefill phase of one transformer
 * layer (paper Table 4). Attention-score rows are reported per single
 * head, matching the paper's presentation. Gate: lint::lintModel and
 * lint::lintInferenceMapping.
 */
std::vector<GemmBoundRow> prefillGemmTable(const Device &dev,
                                           const TransformerConfig &cfg,
                                           const InferenceOptions &opts);

/** Same table (and gate) for one decode step at @p context tokens. */
std::vector<GemmBoundRow> decodeGemmTable(const Device &dev,
                                          const TransformerConfig &cfg,
                                          const InferenceOptions &opts,
                                          long long context);

} // namespace optimus

#endif // OPTIMUS_INFERENCE_ENGINE_H
