#include "inference/engine.h"

#include <algorithm>

#include "lint/lint.h"
#include "plan/plan.h"
#include "util/error.h"
#include "workload/graph.h"

namespace optimus {

// The whole evaluation lives in the plan pipeline (plan/plan.h):
// lowerInference builds the per-(phase, token, op) step list,
// evaluatePlan runs the roofline and collective models, foldInference
// produces the PhaseReports and the trace spans, and runInference
// adds the KV-cache / weight footprint tail. This function is only
// the historical entry point.
InferenceReport
evaluateInference(const TransformerConfig &cfg, const System &sys,
                  const InferenceOptions &opts)
{
    return plan::runInference(cfg, sys, opts).report;
}

namespace {

std::vector<GemmBoundRow>
gemmTable(const Device &dev, const std::vector<Op> &ops,
          long long heads_local)
{
    std::vector<GemmBoundRow> rows;
    for (const Op &op : ops) {
        if (op.kind != OpKind::Gemm)
            continue;
        Op single = op;
        // Attention-score GEMMs are reported per single head.
        bool per_head = (op.name == "qk^T" || op.name == "attn-v") &&
                        heads_local > 0;
        if (per_head) {
            single.count = std::max<long long>(
                1, op.count / heads_local);
            single.launchCount = 1;
        }
        KernelEstimate est = evaluateOp(dev, single);
        GemmBoundRow row;
        row.name = per_head ? "single-head " + op.name : op.name;
        row.time = est.time;
        row.boundType = est.boundName(dev);
        row.flops = est.flops;
        row.dramBytes = est.bytesPerLevel.empty() ? 0.0
                                                  : est.bytesPerLevel[0];
        rows.push_back(row);
    }
    return rows;
}

/** The GEMM tables' gate, on a system of @p dev sized to the mapping. */
void
enforceTableGate(const Device &dev, const TransformerConfig &cfg,
                 const InferenceOptions &opts)
{
    System shape;
    shape.device = dev;
    shape.devicesPerNode = 1;
    shape.numNodes = static_cast<int>(std::max<long long>(
        1, opts.tensorParallel * opts.pipelineParallel));
    lint::LintReport report = lint::lintModel(cfg);
    if (!report.hasErrors())
        report.merge(lint::lintInferenceMapping(cfg, shape, opts));
    lint::enforce(report);
}

} // namespace

std::vector<GemmBoundRow>
prefillGemmTable(const Device &dev, const TransformerConfig &cfg,
                 const InferenceOptions &opts)
{
    enforceTableGate(dev, cfg, opts);
    LayerGraphParams gp;
    gp.batch = opts.batch;
    gp.seq = opts.promptLength;
    gp.tensorParallel = opts.tensorParallel;
    gp.precision = opts.precision;
    gp.training = false;
    long long heads_local = cfg.numHeads / opts.tensorParallel;
    return gemmTable(dev, layerForwardOps(cfg, gp), heads_local);
}

std::vector<GemmBoundRow>
decodeGemmTable(const Device &dev, const TransformerConfig &cfg,
                const InferenceOptions &opts, long long context)
{
    enforceTableGate(dev, cfg, opts);
    checkPositive(context, "context");
    long long heads_local = cfg.numHeads / opts.tensorParallel;
    return gemmTable(dev,
                     decodeLayerOps(cfg, opts.batch, context,
                                    opts.tensorParallel,
                                    opts.precision, opts.kvPrecision),
                     heads_local);
}

} // namespace optimus
