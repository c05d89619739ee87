#include "memory/footprint.h"

#include "parallel/pipeline.h"
#include "training/trainer.h"
#include "workload/activation.h"

namespace optimus {

double
TrainingMemory::total() const
{
    return weights + gradients + optimizer + activations;
}

double
parametersPerDevice(const TransformerConfig &cfg,
                    const ParallelConfig &par)
{
    double layers_local =
        double(cfg.numLayers) / double(par.pipelineParallel);
    // Attention (and router) replicate across EP; the experts shard.
    double layer_params =
        (cfg.attentionParameterCount() +
         double(cfg.numExperts) * cfg.expertParameterCount() /
             double(par.expertParallel)) /
        double(par.tensorParallel);
    // The first stage also holds the (TP-sharded) embedding table.
    double embedding =
        cfg.embeddingParameterCount() / double(par.tensorParallel);
    return layers_local * layer_params + embedding;
}

TrainingMemory
trainingMemoryPerDevice(const TransformerConfig &cfg,
                        const ParallelConfig &par,
                        long long global_batch, const TrainingOptions &opts)
{
    TrainingMemory mem;
    double params = parametersPerDevice(cfg, par);
    double dp = double(par.dataParallel);
    const int zero = opts.memory.zeroStage;
    mem.weights = params * kWeightBytes / (zero >= 3 ? dp : 1.0);
    mem.gradients = params * kGradientBytes / (zero >= 2 ? dp : 1.0);
    mem.optimizer = params * kOptimizerBytesPerParam / (zero >= 1 ? dp : 1.0);

    ActivationParams ap;
    ap.microbatch = par.microbatchSize;
    ap.seq = opts.seqLength / par.contextParallel;
    ap.tensorParallel = par.tensorParallel;
    ap.sequenceParallel = par.sequenceParallel;
    ap.activationBytes = activationBytes(opts.precision);
    ap.flashAttention = opts.flashAttention;

    long long layers_local = cfg.numLayers / par.pipelineParallel;
    long long m = par.microbatches(global_batch);
    PipelineCost pc = pipelineCost(par.schedule, par.pipelineParallel,
                                   m, par.interleavedStages);

    if (opts.recompute == Recompute::Full) {
        // Every in-flight microbatch keeps only its checkpoints; the
        // working set of Eq. 1's second term exists once, for the
        // microbatch currently running backward.
        ActivationBreakdown br = layerActivations(cfg, ap);
        double checkpoints =
            double(layers_local) * br.input * pc.inflightMicrobatches;
        double working = br.total() - br.input;
        mem.activations = checkpoints + working;
    } else {
        double per_microbatch =
            activationMemory(cfg, ap, layers_local, opts.recompute);
        mem.activations = per_microbatch * pc.inflightMicrobatches;
    }
    return mem;
}

} // namespace optimus
