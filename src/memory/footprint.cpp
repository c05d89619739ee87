#include "memory/footprint.h"

#include "parallel/pipeline.h"

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
                        long long global_batch, long long seq,
                        Recompute recompute, const MemoryOptions &opts)
{
    TrainingMemory mem;
    double params = parametersPerDevice(cfg, par);
    double dp = double(par.dataParallel);
    mem.weights = params * opts.weightBytes /
                  (opts.zeroStage >= 3 ? dp : 1.0);
    mem.gradients = params * opts.gradientBytes /
                    (opts.zeroStage >= 2 ? dp : 1.0);
    mem.optimizer = params * opts.optimizerBytesPerParam /
                    (opts.zeroStage >= 1 ? dp : 1.0);

    ActivationParams ap;
    ap.microbatch = par.microbatchSize;
    ap.seq = seq / par.contextParallel;
    ap.tensorParallel = par.tensorParallel;
    ap.sequenceParallel = par.sequenceParallel;
    ap.activationBytes = opts.activationBytes;
    ap.flashAttention = opts.flashAttention;

    long long layers_local = cfg.numLayers / par.pipelineParallel;
    long long m = par.microbatches(global_batch);
    PipelineCost pc = pipelineCost(par.schedule, par.pipelineParallel,
                                   m, par.interleavedStages);

    if (recompute == Recompute::Full) {
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
            activationMemory(cfg, ap, layers_local, recompute);
        mem.activations = per_microbatch * pc.inflightMicrobatches;
    }
    return mem;
}

} // namespace optimus
