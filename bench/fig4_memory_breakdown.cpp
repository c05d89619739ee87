/**
 * @file
 * Reproduces paper Fig. 4: per-GPU training memory breakdown (weights,
 * gradients, optimizer states, activations) for GPT models under
 * three activation-recomputation strategies, against the 80 GB A100
 * capacity line. Training configurations follow Table 1; mixed
 * precision with 2-byte activations.
 */

#include <iostream>
#include <vector>

#include "core/optimus.h"

using namespace optimus;

namespace {

struct Case
{
    TransformerConfig model;
    long long batch, dp, tp, pp;
    bool sp;
};

} // namespace

int
main()
{
    std::cout << "Fig. 4: training memory breakdown per GPU (GiB); "
                 "A100 capacity = 80 GiB\n\n";

    // Table 1 configurations, with sequence parallelism on (the
    // paper's SP rows; SP only shrinks the footprint).
    std::vector<Case> cases = {
        {models::gpt175b(), 64, 1, 8, 8, true},
        {models::gpt530b(), 280, 1, 8, 35, true},
        {models::gpt1008b(), 512, 1, 8, 64, true},
    };

    Table out({"Model", "Recompute", "Weights", "Grads", "Optimizer",
               "Activations", "Total", "Fits 80GB"});

    for (const Case &c : cases) {
        for (Recompute r : {Recompute::None, Recompute::Selective,
                            Recompute::Full}) {
            ParallelConfig par;
            par.dataParallel = c.dp;
            par.tensorParallel = c.tp;
            par.pipelineParallel = c.pp;
            par.sequenceParallel = c.sp;

            TrainingMemory mem = trainingMemoryPerDevice(
                c.model, par, c.batch, {.recompute = r});

            out.beginRow()
                .cell(c.model.name)
                .cell(recomputeName(r))
                .cell(mem.weights / GiB, 1)
                .cell(mem.gradients / GiB, 1)
                .cell(mem.optimizer / GiB, 1)
                .cell(mem.activations / GiB, 1)
                .cell(mem.total() / GiB, 1)
                .cell(mem.total() <= 80 * GiB ? "yes" : "NO");
            out.endRow();
        }
    }
    out.print(std::cout);

    std::cout << "\nExpected shape (paper): no recomputation "
                 "overflows the device; selective sits close to full "
                 "with little compute overhead.\n";
    return 0;
}
