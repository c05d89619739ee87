/**
 * @file
 * Extension bench: bottleneck evolution, quantified.
 *
 * The paper's conclusion: "we reveal the evolution of performance
 * bottlenecks for both LLM training and inference with technology
 * scaling". This bench makes that one number per resource: the
 * elasticity of execution time with respect to each hardware resource
 * (-1 = fully bound, 0 = insensitive), across GPU generations.
 */

#include <iostream>

#include "core/optimus.h"

using namespace optimus;

namespace {

Table
header()
{
    return Table({"System", "matrix", "DRAM", "on-chip", "intra-net",
                  "inter-net", "overheads"});
}

void
addRow(Table &out, const std::string &label,
       const std::vector<Sensitivity> &s)
{
    double v[6] = {0, 0, 0, 0, 0, 0};
    for (const Sensitivity &row : s)
        v[static_cast<int>(row.resource)] = row.elasticity;
    out.beginRow()
        .cell(label)
        .cell(v[0], 2)
        .cell(v[1], 2)
        .cell(v[2], 2)
        .cell(v[3], 2)
        .cell(v[4], 2)
        .cell(v[5], 2);
    out.endRow();
}

} // namespace

int
main()
{
    std::cout << "Extension: bottleneck elasticities "
                 "(d log time / d log resource; -1 = fully bound)\n\n";

    // ---- Training: GPT-175B, 64 GPUs, TP8 x PP8 ----------------------
    auto train = [](Precision prec) {
        return [prec](const System &sys) {
            ParallelConfig par;
            par.tensorParallel = 8;
            par.pipelineParallel = 8;
            par.sequenceParallel = true;
            TrainingOptions opts;
            opts.precision = prec;
            opts.recompute = Recompute::Selective;
            return evaluateTraining(models::gpt175b(), sys, par, 64,
                                    opts)
                .timePerBatch;
        };
    };

    Table tr = header();
    addRow(tr, "A100 (fp16)",
           analyzeSensitivity(presets::dgxA100(8),
                              train(Precision::FP16)));
    addRow(tr, "H100 (fp8)",
           analyzeSensitivity(presets::dgxH100(8),
                              train(Precision::FP8)));
    addRow(tr, "B200 (fp4)",
           analyzeSensitivity(presets::dgxB200(8),
                              train(Precision::FP4)));
    std::cout << "Training, GPT-175B (TP8 x PP8, 64 GPUs):\n";
    tr.print(std::cout);
    std::cout << "\nExpected: compute dominates on A100 and fades "
                 "toward B200 while memory and network elasticities "
                 "grow (Fig. 7's shift, in numbers).\n\n";

    // ---- Inference: Llama2-13B decode ----------------------------------
    auto infer = [](int tp) {
        return [tp](const System &sys) {
            InferenceOptions opts;
            opts.tensorParallel = tp;
            return evaluateInference(models::llama2_13b(), sys, opts)
                .totalLatency;
        };
    };

    Table inf = header();
    addRow(inf, "A100 TP1",
           analyzeSensitivity(presets::dgxA100(1), infer(1)));
    addRow(inf, "H100 TP1",
           analyzeSensitivity(presets::dgxH100(1), infer(1)));
    addRow(inf, "A100 TP8",
           analyzeSensitivity(presets::dgxA100(1), infer(8)));
    std::cout << "Inference, Llama2-13B (B=1, 200+200 tokens):\n";
    inf.print(std::cout);
    std::cout << "\nExpected: single-GPU decode is almost pure DRAM "
                 "(Sec. 6.1); at TP8 the per-token collectives make "
                 "software overheads the co-bottleneck (Sec. 6.2).\n";
    return 0;
}
