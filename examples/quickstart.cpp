/**
 * @file
 * Quickstart: predict training time for GPT-3 175B on 64 A100s and
 * inference latency for Llama2-13B on one A100, in ~40 lines.
 */

#include <iostream>

#include "core/optimus.h"

using namespace optimus;

int
main()
{
    // ---- Training: GPT-3 175B on 8 DGX-A100 nodes --------------------
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    par.sequenceParallel = true;

    TrainingOptions topts;
    topts.recompute = Recompute::Selective;

    // Lint gates the call: an illegal mapping throws LintError with
    // every OPT-* diagnostic before anything is priced.
    TrainingReport t = evaluateTraining(models::gpt175b(),
                                        presets::dgxA100(8), par,
                                        /*global_batch=*/64, topts);

    std::cout << "GPT-175B on 64xA100, batch 64:\n"
              << "  time/batch: " << formatTime(t.timePerBatch) << "\n"
              << "  compute:    " << formatTime(t.time.compute()) << "\n"
              << "  comm:       " << formatTime(t.time.communication())
              << "\n"
              << "  other:      " << formatTime(t.time.other()) << "\n"
              << "  MFU:        " << t.mfu * 100.0 << " %\n"
              << "  memory/GPU: " << formatBytes(t.memory.total())
              << "\n\n";

    // ---- Inference: Llama2-13B on one A100 ---------------------------
    InferenceOptions iopts;
    iopts.tensorParallel = 1;
    iopts.promptLength = 200;
    iopts.generateLength = 200;

    InferenceReport i =
        evaluateInference(models::llama2_13b(), presets::dgxA100(1), iopts);

    std::cout << "Llama2-13B on 1xA100, 200+200 tokens:\n"
              << "  prefill:  " << formatTime(i.prefill.time) << "\n"
              << "  decode:   " << formatTime(i.decode.time) << "\n"
              << "  total:    " << formatTime(i.totalLatency) << "\n"
              << "  KV cache: " << formatBytes(i.kvCacheBytes) << "\n";
    return 0;
}
