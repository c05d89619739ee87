#include "inference/serving.h"

#include <algorithm>

#include "lint/lint.h"
#include "memory/kv_cache.h"
#include "plan/plan.h"
#include "util/error.h"

namespace optimus {

ServingPoint
evaluateServingPoint(const TransformerConfig &cfg, const System &sys,
                     const ServingOptions &opts, long long batch)
{
    return servingSweep(cfg, sys, opts, {batch}).front();
}

InferenceOptions
servingInference(const ServingOptions &opts)
{
    InferenceOptions io;
    io.precision = opts.precision;
    io.tensorParallel = opts.tensorParallel;
    io.batch = 1;
    io.promptLength = opts.promptLength;
    io.generateLength = opts.generateLength;
    io.flashAttention = opts.flashAttention;
    io.collectiveAlgorithm = opts.collectiveAlgorithm;
    io.kvPrecision = opts.kvPrecision;
    return io;
}

std::vector<ServingPoint>
servingSweep(const TransformerConfig &cfg, const System &sys,
             const ServingOptions &opts,
             const std::vector<long long> &batches)
{
    // Of the gate's rules only positivity reads the batch, so the
    // smallest batch stands for the whole sweep.
    InferenceOptions io = servingInference(opts);
    if (!batches.empty())
        io.batch = *std::min_element(batches.begin(), batches.end());
    lint::enforce(lint::lintInferenceGate(cfg, sys, io));
    return servingSweepLinted(cfg, sys, opts, batches);
}

std::vector<ServingPoint>
servingSweepLinted(const TransformerConfig &cfg, const System &sys,
                   const ServingOptions &opts,
                   const std::vector<long long> &batches)
{
    // Continuous batching interleaves one prefill per completed
    // sequence; amortize its cost over that sequence's generated
    // tokens. Prefill runs at batch 1 (chunked alongside decode), so
    // one evaluation prices it for every batch of the sweep.
    InferenceOptions io = servingInference(opts);
    plan::KernelPlan prefill_plan;
    plan::lowerPrefill(cfg, sys, io, prefill_plan.steps);
    const double prefill =
        plan::foldInference(
            plan::evaluatePlan(std::move(prefill_plan), sys), nullptr)
            .prefill.time;
    const double amortized_prefill =
        prefill / double(opts.generateLength);

    // Decode runs at the mean context length: the first generated
    // token after a prompt one shorter than that context.
    io.promptLength = opts.promptLength + opts.generateLength / 2 - 1;

    const long long max_context = opts.promptLength + opts.generateLength;
    const double weights_per_device =
        modelWeightBytes(cfg, opts.precision) /
        double(opts.tensorParallel);

    std::vector<ServingPoint> out;
    out.reserve(batches.size());
    for (long long batch : batches) {
        ServingPoint pt;
        pt.batch = batch;

        io.batch = batch;
        plan::KernelPlan kp;
        plan::lowerDecodeTokens(cfg, sys, io, 0, 1, kp.steps);
        pt.decodeStepTime =
            plan::foldInference(plan::evaluatePlan(std::move(kp), sys),
                                nullptr)
                .decode.time;
        pt.timeToFirstToken = prefill;

        double effective_step = pt.decodeStepTime + amortized_prefill;
        pt.interTokenLatency = effective_step;
        pt.tokensPerSecond = double(batch) / effective_step;
        pt.requestsPerSecond =
            pt.tokensPerSecond / double(opts.generateLength);

        pt.kvCacheBytesPerDevice =
            kvCacheBytes(cfg, batch, max_context, opts.kvPrecision) /
            double(opts.tensorParallel);
        pt.fits = pt.kvCacheBytesPerDevice + weights_per_device <=
                  sys.device.dram().capacity;
        out.push_back(pt);
    }
    return out;
}

ServingPoint
maxThroughputPoint(const TransformerConfig &cfg, const System &sys,
                   const ServingOptions &opts, long long batch_limit)
{
    checkPositive(batch_limit, "batch limit");
    std::vector<long long> batches;
    for (long long b = 1; b <= batch_limit; b *= 2)
        batches.push_back(b);
    const std::vector<ServingPoint> points =
        servingSweep(cfg, sys, opts, batches);

    const ServingPoint *best = nullptr;
    for (const ServingPoint &pt : points) {
        if (!pt.fits)
            break;
        if (best == nullptr || pt.tokensPerSecond > best->tokensPerSecond)
            best = &pt;
    }
    checkConfig(best != nullptr,
                "model does not fit the device at batch 1");
    return *best;
}

double
costPerMillionTokens(const ServingOptions &opts, const ServingPoint &point,
                     const ServingCostModel &cost)
{
    checkPositive(point.tokensPerSecond, "tokens per second");

    const double devices = double(opts.tensorParallel);
    const double seconds_per_mtok = 1e6 / point.tokensPerSecond;

    // Amortized hardware for the TP group.
    double fleet_price = cost.tco.devicePriceUsd * devices *
                         (1.0 + cost.tco.interconnectFraction);
    double amortization_seconds =
        cost.tco.amortizationYears * 365.25 * 24.0 * 3600.0;
    double capex = fleet_price * seconds_per_mtok /
                   amortization_seconds;

    // Electricity: decode is memory-bound, so devices run well below
    // TDP; charge the idle fraction plus DRAM-activity power.
    double watts = cost.energy.devicePower * devices *
                   (cost.energy.idlePowerFraction + 0.35);
    double kwh = watts * seconds_per_mtok / 3.6e6;
    double energy = kwh * cost.tco.powerCostPerKwh * cost.tco.pue;

    return capex + energy;
}

} // namespace optimus
