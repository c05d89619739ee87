#include "workload/graph.h"

#include <algorithm>
#include <cmath>

#include "roofline/stream.h"
#include "util/error.h"

namespace optimus {

namespace {

Op
gemmOp(const std::string &name, long long m, long long n, long long k,
       Precision prec, long long count = 1)
{
    Op op;
    op.name = name;
    op.kind = OpKind::Gemm;
    op.gemm = {m, n, k, prec};
    op.count = count;
    return op;
}

Op
softmaxOp(const std::string &name, double rows, double cols)
{
    Op op;
    op.name = name;
    op.kind = OpKind::Softmax;
    op.rows = rows;
    op.cols = cols;
    return op;
}

Op
layerNormOp(const std::string &name, double rows, double cols)
{
    Op op;
    op.name = name;
    op.kind = OpKind::LayerNorm;
    op.rows = rows;
    op.cols = cols;
    return op;
}

Op
elementwiseOp(const std::string &name, double elements,
              double flops_per_elem, bool fused = false)
{
    Op op;
    op.name = name;
    op.kind = OpKind::Elementwise;
    op.elements = elements;
    op.flopsPerElement = flops_per_elem;
    op.fused = fused;
    return op;
}

/**
 * FFN ops for @p tokens device-local tokens: the dense MLP, or the
 * router plus the sharded expert FFNs for MoE (each token activates
 * topK of the numExperts experts; experts shard over expertParallel
 * devices and the expert width over tensorParallel).
 */
void
appendFfnOps(std::vector<Op> &ops, const TransformerConfig &cfg,
             long long tokens, long long t, long long ep,
             Precision prec, bool training)
{
    const long long h = cfg.hiddenSize;
    const long long f_local = cfg.ffnHidden / t;

    if (!cfg.isMoe()) {
        if (cfg.mlp == MlpKind::SwiGlu) {
            ops.push_back(gemmOp("mlp-gate-up", tokens, f_local, h,
                                 prec, 2));
            ops.push_back(elementwiseOp("swiglu",
                                        double(tokens) * f_local,
                                        2.0));
        } else {
            ops.push_back(gemmOp("mlp-fc1", tokens, f_local, h,
                                 prec));
            ops.push_back(elementwiseOp("gelu",
                                        double(tokens) * f_local,
                                        4.0));
        }
        ops.push_back(gemmOp("mlp-fc2", tokens, h, f_local, prec));
        return;
    }

    // Router: score every token against every expert, pick top-k.
    ops.push_back(gemmOp("moe-router", tokens, cfg.numExperts, h,
                         prec));
    ops.push_back(softmaxOp("router-softmax", double(tokens),
                            double(cfg.numExperts)));

    // Balanced routing: after the all-to-all each of the ep shards
    // processes tokens*topK expert-token units across its local
    // experts; with few tokens (decode) only the activated experts'
    // weights are touched.
    const long long experts_local =
        std::max<long long>(1, cfg.numExperts / ep);
    const long long expert_tokens = tokens * cfg.topK;
    const long long active =
        std::min<long long>(experts_local, expert_tokens);
    const long long m_e = (expert_tokens + active - 1) / active;

    if (cfg.mlp == MlpKind::SwiGlu) {
        ops.push_back(gemmOp("moe-gate-up", m_e, f_local, h, prec,
                             2 * active));
        ops.push_back(elementwiseOp("swiglu",
                                    double(expert_tokens) * f_local,
                                    2.0));
    } else {
        ops.push_back(gemmOp("moe-fc1", m_e, f_local, h, prec,
                             active));
        ops.push_back(elementwiseOp("gelu",
                                    double(expert_tokens) * f_local,
                                    4.0));
    }
    ops.push_back(gemmOp("moe-fc2", m_e, h, f_local, prec, active));
    // Weighted combine of the top-k expert outputs per token.
    ops.push_back(elementwiseOp("moe-combine",
                                double(expert_tokens) * h, 1.0,
                                !training));
}

} // namespace

std::vector<Op>
layerForwardOps(const TransformerConfig &cfg, const LayerGraphParams &p)
{
    const long long t = p.tensorParallel;
    const long long h = cfg.hiddenSize;
    const long long hd = cfg.headDim();
    const long long heads_local = cfg.numHeads / t;
    const long long kv_local =
        std::max<long long>(1, cfg.numKvHeads / t);
    // Context parallelism shards the sequence itself across devices.
    const long long seq_local = p.seq / p.contextParallel;
    const long long tokens = p.batch * seq_local;
    // With sequence parallelism the norm/dropout rows are sharded.
    const double norm_tokens =
        p.sequenceParallel ? double(tokens) / t : double(tokens);

    std::vector<Op> ops;

    ops.push_back(layerNormOp("ln1", norm_tokens, double(h)));

    // Merged-head QKV projection: X[T,h] x W[h, (q + 2 kv) local].
    const long long qkv_cols = heads_local * hd + 2 * kv_local * hd;
    ops.push_back(gemmOp("qkv-proj", tokens, qkv_cols, h, p.precision));

    if (p.flashAttention) {
        // IO-aware fused attention: the same 4*b*a*s^2*hd FLOPs, but
        // only Q, K, V, O cross DRAM; K/V tiles are re-streamed from
        // L2 once per query block (block size ~128 rows).
        const double elem = precisionBytes(p.precision);
        Op fa;
        fa.name = "flash-attention";
        fa.kind = OpKind::FusedAttention;
        fa.fusedPrecision = p.precision;
        // Local queries attend over the FULL sequence (the KV set
        // circulates around the CP ring).
        fa.fusedFlops = 4.0 * double(p.batch) * heads_local *
                        double(seq_local) * double(p.seq) *
                        double(hd);
        fa.fusedDramBytes =
            (2.0 * heads_local * seq_local +
             2.0 * kv_local * p.seq) *
            double(p.batch) * double(hd) * elem;
        fa.fusedOnChipBytes =
            2.0 * double(p.batch) * heads_local *
            std::ceil(double(seq_local) / 128.0) * double(p.seq) *
            double(hd) * elem;
        ops.push_back(fa);
    } else {
        // Attention scores: Q[s,hd] x K^T[hd,s]. With grouped-query
        // attention the group's query heads share one K head, so the
        // batched GEMM runs per KV head with the group's queries
        // stacked (K streams once per group). Training uses fused
        // batched kernels (one launch); inference prefill launches
        // per head, the paper's Table 4 accounting.
        const long long group = heads_local / kv_local;
        Op qkt = gemmOp("qk^T", group * p.seq, p.seq, hd, p.precision,
                        p.batch * kv_local);
        if (!p.training)
            qkt.launchCount = heads_local;
        ops.push_back(qkt);

        ops.push_back(softmaxOp("attn-softmax",
                                double(p.batch) * heads_local * p.seq,
                                double(p.seq)));
        if (p.training) {
            ops.push_back(elementwiseOp(
                "attn-dropout",
                double(p.batch) * heads_local * p.seq * p.seq, 1.0));
        }

        // Weighted values: softmax(R)[s,s] x V[s,hd]; V is likewise
        // shared across each query-head group.
        Op av = gemmOp("attn-v", group * p.seq, hd, p.seq,
                       p.precision, p.batch * kv_local);
        if (!p.training)
            av.launchCount = heads_local;
        ops.push_back(av);
    }

    // Output projection: Z[T, h/t] x W[h/t, h] (row-parallel).
    ops.push_back(gemmOp("attn-out", tokens, h, heads_local * hd,
                         p.precision));
    if (p.training) {
        ops.push_back(elementwiseOp("attn-res-dropout",
                                    norm_tokens * h, 1.0));
    }
    ops.push_back(elementwiseOp("attn-residual", norm_tokens * h, 1.0,
                                true));

    ops.push_back(layerNormOp("ln2", norm_tokens, double(h)));

    // FFN block (column-parallel then row-parallel; MoE routes over
    // sharded experts).
    appendFfnOps(ops, cfg, tokens, t, p.expertParallel, p.precision,
                 p.training);
    if (p.training) {
        ops.push_back(elementwiseOp("mlp-res-dropout",
                                    norm_tokens * h, 1.0));
    }
    ops.push_back(elementwiseOp("mlp-residual", norm_tokens * h, 1.0,
                                true));

    return ops;
}

std::vector<Op>
layerBackwardOps(const TransformerConfig &cfg, const LayerGraphParams &p)
{
    std::vector<Op> fwd = layerForwardOps(cfg, p);
    std::vector<Op> bwd;
    bwd.reserve(fwd.size() * 2);

    for (auto it = fwd.rbegin(); it != fwd.rend(); ++it) {
        const Op &op = *it;
        if (op.kind == OpKind::Gemm) {
            // C[m,n] = A[m,k] B[k,n]:
            //   dA[m,k] = dC[m,n] B^T[n,k]   (data gradient)
            //   dB[k,n] = A^T[k,m] dC[m,n]   (weight gradient)
            const GemmShape &g = op.gemm;
            Op dgrad = gemmOp(op.name + "-dgrad", g.m, g.k, g.n,
                              g.precision, op.count);
            Op wgrad = gemmOp(op.name + "-wgrad", g.k, g.n, g.m,
                              g.precision, op.count);
            bwd.push_back(dgrad);
            bwd.push_back(wgrad);
        } else if (op.kind == OpKind::FusedAttention) {
            // FlashAttention backward recomputes the score tiles:
            // ~2.5x the forward FLOPs, ~2x the DRAM traffic (dQ, dK,
            // dV plus the forward operands again).
            Op back = op;
            back.name = op.name + "-bwd";
            back.fusedFlops = op.fusedFlops * 2.5;
            back.fusedDramBytes = op.fusedDramBytes * 2.0;
            back.fusedOnChipBytes = op.fusedOnChipBytes * 2.5;
            bwd.push_back(back);
        } else {
            // Stream ops stream roughly the same bytes again on the
            // way back (dropout applies its mask, norms need two
            // passes worth of traffic).
            Op back = op;
            back.name = op.name + "-bwd";
            bwd.push_back(back);
        }
    }
    return bwd;
}

std::vector<Op>
decodeLayerOps(const TransformerConfig &cfg, long long batch,
               long long context, long long tensor_parallel,
               Precision precision)
{
    return decodeLayerOps(cfg, batch, context, tensor_parallel,
                          precision, precision);
}

DecodeAttention
decodeAttention(const TransformerConfig &cfg, long long batch,
                long long tensor_parallel, Precision kv_precision)
{
    DecodeAttention a;
    a.batch = batch;
    a.headsLocal = cfg.numHeads / tensor_parallel;
    a.kvHeadsLocal =
        std::max<long long>(1, cfg.numKvHeads / tensor_parallel);
    a.headDim = cfg.headDim();
    a.slidingWindow = cfg.slidingWindow;
    a.kvPrecision = kv_precision;
    return a;
}

Op
DecodeAttention::op(Kind kind, long long context) const
{
    // Sliding-window attention bounds the readable cache.
    const long long span = attentionSpan(context, slidingWindow);

    // Attention over the cache: the group's queries [g, hd] hit the
    // shared K^T[hd, ctx] per KV head (the cache streams once per
    // group, the GQA bandwidth saving).
    const long long group = headsLocal / kvHeadsLocal;
    switch (kind) {
      case QkT:
        return gemmOp("qk^T", group, span, headDim, kvPrecision,
                      batch * kvHeadsLocal);
      case Softmax:
        return softmaxOp("attn-softmax", double(batch) * headsLocal,
                         double(span));
      case AttnV:
        break;
    }
    return gemmOp("attn-v", group, headDim, span, kvPrecision,
                  batch * kvHeadsLocal);
}

std::vector<Op>
decodeLayerOps(const TransformerConfig &cfg, long long batch,
               long long context, long long tensor_parallel,
               Precision precision, Precision kv_precision)
{
    const long long t = tensor_parallel;
    const long long h = cfg.hiddenSize;
    const long long hd = cfg.headDim();
    const long long heads_local = cfg.numHeads / t;
    const long long kv_local =
        std::max<long long>(1, cfg.numKvHeads / t);

    std::vector<Op> ops;

    ops.push_back(layerNormOp("ln1", double(batch), double(h)));

    const long long qkv_cols = heads_local * hd + 2 * kv_local * hd;
    ops.push_back(gemmOp("qkv-proj", batch, qkv_cols, h, precision));

    // KV-cache append: write this token's K and V.
    ops.push_back(elementwiseOp("kv-append",
                                double(batch) * 2.0 * kv_local * hd,
                                0.0, true));

    const DecodeAttention attention =
        decodeAttention(cfg, batch, t, kv_precision);
    for (int k = 0; k < DecodeAttention::kOps; ++k)
        ops.push_back(attention.op(DecodeAttention::Kind(k), context));

    ops.push_back(gemmOp("attn-out", batch, h, heads_local * hd,
                         precision));
    ops.push_back(elementwiseOp("attn-residual", double(batch) * h,
                                1.0, true));

    ops.push_back(layerNormOp("ln2", double(batch), double(h)));

    appendFfnOps(ops, cfg, batch, t, /*ep=*/1, precision,
                 /*training=*/false);
    ops.push_back(elementwiseOp("mlp-residual", double(batch) * h, 1.0,
                                true));

    return ops;
}

std::vector<Op>
headOps(const TransformerConfig &cfg, long long tokens,
        long long tensor_parallel, Precision precision)
{
    const long long v_local = cfg.vocabSize / tensor_parallel;

    std::vector<Op> ops;
    ops.push_back(layerNormOp("final-ln", double(tokens),
                              double(cfg.hiddenSize)));
    ops.push_back(gemmOp("lm-head", tokens, v_local, cfg.hiddenSize,
                         precision));
    ops.push_back(softmaxOp("logits-softmax", double(tokens),
                            double(v_local)));
    return ops;
}

double
opFlops(const Op &op)
{
    switch (op.kind) {
      case OpKind::Gemm:
        return 2.0 * double(op.gemm.m) * double(op.gemm.n) *
               double(op.gemm.k) * double(op.count);
      case OpKind::Softmax:
      case OpKind::LayerNorm:
        return 5.0 * op.rows * op.cols;
      case OpKind::Elementwise:
        return op.elements * op.flopsPerElement;
      case OpKind::FusedAttention:
        return op.fusedFlops;
      case OpKind::Stream:
        return op.streamFlops;
    }
    throw ModelError("unknown op kind");
}

KernelEstimate
evaluateOp(const Device &dev, const Op &op)
{
    switch (op.kind) {
      case OpKind::Gemm: {
        GemmOptions opts;
        opts.launchOverhead = false;
        KernelEstimate est = estimateGemm(dev, op.gemm, op.name, opts);
        // Preserve the roofline bound classification computed by
        // estimateGemm; scaling by the batch count does not change it.
        int bound = est.boundLevel;
        if (op.count > 1) {
            est.flops *= op.count;
            est.computeTime *= op.count;
            for (size_t i = 0; i < est.bytesPerLevel.size(); ++i) {
                est.bytesPerLevel[i] *= op.count;
                est.memTimePerLevel[i] *= op.count;
            }
        }
        est.overhead = double(op.launchCount) *
                       dev.kernelLaunchOverhead;
        finalizeEstimate(est);
        est.boundLevel = bound;
        return est;
      }
      case OpKind::Softmax:
        return estimateSoftmax(dev, op.rows, op.cols,
                               Precision::FP16);
      case OpKind::LayerNorm:
        return estimateLayerNorm(dev, op.rows, op.cols,
                                 Precision::FP16);
      case OpKind::Elementwise:
        return estimateElementwise(dev, op.name, op.elements,
                                   op.flopsPerElement, Precision::FP16,
                                   !op.fused);
      case OpKind::FusedAttention: {
        // Fraction of the matrix-engine ceiling a fused attention
        // kernel sustains: the two chained per-tile matmuls amortize
        // the softmax interleaving (measured FlashAttention-2 reaches
        // ~half of device peak for long sequences).
        constexpr double kFlashEfficiency = 0.5;
        KernelEstimate est;
        est.kernel = op.name;
        est.flops = op.fusedFlops;
        double peak = dev.supportsMatrix(op.fusedPrecision)
                          ? dev.matrixFlops(op.fusedPrecision) *
                                dev.matrixMaxEfficiency *
                                kFlashEfficiency
                          : dev.vectorFlops(op.fusedPrecision);
        est.computeTime = est.flops / peak;
        est.bytesPerLevel.assign(dev.mem.size(), 0.0);
        est.memTimePerLevel.assign(dev.mem.size(), 0.0);
        est.bytesPerLevel[0] = op.fusedDramBytes;
        est.memTimePerLevel[0] =
            op.fusedDramBytes /
            (dev.dram().bandwidth * dev.dram().utilization);
        if (dev.mem.size() > 1) {
            est.bytesPerLevel[1] = op.fusedOnChipBytes;
            est.memTimePerLevel[1] =
                op.fusedOnChipBytes /
                (dev.mem[1].bandwidth * dev.mem[1].utilization);
        }
        est.overhead = double(op.launchCount) *
                       dev.kernelLaunchOverhead;
        finalizeEstimate(est);
        return est;
      }
      case OpKind::Stream:
        return estimateStream(dev, op.name, op.streamBytes,
                              op.streamFlops, op.streamPrecision,
                              !op.fused);
    }
    throw ModelError("unknown op kind");
}

KernelEstimate
evaluateOps(const Device &dev, const std::vector<Op> &ops,
            const std::string &label)
{
    KernelEstimate total;
    total.kernel = label;
    total.bytesPerLevel.assign(dev.mem.size(), 0.0);
    total.memTimePerLevel.assign(dev.mem.size(), 0.0);
    for (const Op &op : ops)
        total = combineEstimates(label, total, evaluateOp(dev, op));
    return total;
}

} // namespace optimus
