/**
 * @file
 * Extension bench: serving throughput and cost per million generated
 * tokens across devices and batch sizes — the "performance per TCO"
 * analysis the paper's introduction motivates and its conclusion
 * lists as future work.
 *
 * Llama2-13B chat serving, 512-token prompt, 256 generated tokens,
 * continuous batching.
 */

#include <iostream>

#include "core/optimus.h"

using namespace optimus;

int
main()
{
    std::cout << "Extension: serving throughput and $/Mtok, "
                 "Llama2-13B (512+256 tokens)\n\n";

    TransformerConfig model = models::llama2_13b();

    for (const System &sys :
         {presets::dgxA100(1), presets::dgxH100(1),
          presets::dgxB200(1)}) {
        ServingOptions opts;
        opts.tensorParallel = 1;

        ServingCostModel cost;
        // Rough street prices per accelerator.
        if (sys.device.name == "A100-80GB")
            cost.tco.devicePriceUsd = 15000;
        else if (sys.device.name == "H100-SXM")
            cost.tco.devicePriceUsd = 30000;
        else
            cost.tco.devicePriceUsd = 45000;
        cost.energy.devicePower =
            sys.device.name == "A100-80GB" ? 400.0 : 700.0;

        Table out({"Batch", "tok/s", "ms/token", "TTFT (ms)",
                   "KV/GPU (GiB)", "fits", "$/Mtok"});
        for (long long b : {1LL, 4LL, 16LL, 64LL, 128LL}) {
            ServingPoint pt =
                evaluateServingPoint(model, sys, opts, b);
            out.beginRow()
                .cell(b)
                .cell(pt.tokensPerSecond, 0)
                .cell(pt.interTokenLatency * 1e3, 2)
                .cell(pt.timeToFirstToken * 1e3, 1)
                .cell(pt.kvCacheBytesPerDevice / GiB, 1)
                .cell(pt.fits ? "yes" : "NO")
                .cell(costPerMillionTokens(opts, pt, cost), 2);
            out.endRow();
        }
        std::cout << sys.device.name << ":\n";
        out.print(std::cout);

        ServingPoint best = maxThroughputPoint(model, sys, opts);
        std::cout << "best fitting batch " << best.batch << " -> "
                  << best.tokensPerSecond << " tok/s, "
                  << costPerMillionTokens(opts, best, cost)
                  << " $/Mtok\n\n";
    }

    std::cout << "Expected: batching divides $/Mtok by an order of "
                 "magnitude until the KV cache exhausts device "
                 "memory; newer devices win on throughput but must "
                 "amortize higher capex.\n";
    return 0;
}
