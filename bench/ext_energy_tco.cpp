/**
 * @file
 * Extension bench: training energy and total cost of operation across
 * GPU generations — the paper's stated future work ("integrating a
 * cost and an energy model ... performing complete performance per
 * TCO analysis", Sec. 7).
 *
 * GPT-3 175B, 1024 GPUs, 300B-token run (the GPT-3 training budget),
 * per generation with its native training precision.
 */

#include <iostream>

#include "core/optimus.h"

using namespace optimus;

int
main()
{
    std::cout << "Extension: training energy & TCO, GPT-3 175B, "
                 "1024 GPUs, 300B-token run\n\n";

    struct Row
    {
        const char *label;
        System sys;
        Precision precision;
        double priceUsd;
        double tdp;
        double logicEfficiencyScale;  ///< vs A100's 7 nm
    };
    const Row rows[] = {
        {"A100-HDR (fp16)", presets::dgxA100(128), Precision::FP16,
         15000, 400, 1.0},
        {"H100-NDR (fp8)", presets::dgxH100(128), Precision::FP8,
         30000, 700, 1.69},
        {"B200-NVS (fp4)", presets::dgxB200Nvs(128), Precision::FP4,
         45000, 1000, 2.20},
    };

    const double total_tokens = 300e9;
    const long long batch = 1024;
    const double tokens_per_batch = double(batch) * 2048.0;
    const long long batches =
        static_cast<long long>(total_tokens / tokens_per_batch);

    Table out({"System", "t/batch (s)", "run days", "MWh",
               "avg MW", "capex $M", "energy $M", "total $M"});

    for (const Row &row : rows) {
        ParallelConfig par;
        par.dataParallel = 16;
        par.tensorParallel = 8;
        par.pipelineParallel = 8;
        par.sequenceParallel = true;
        par.schedule = PipelineSchedule::Interleaved1F1B;
        par.interleavedStages = 12;

        TrainingOptions opts;
        opts.precision = row.precision;
        opts.recompute = Recompute::Selective;

        TrainingReport rep = evaluateTraining(models::gpt175b(),
                                              row.sys, par, batch,
                                              opts);

        EnergyModel energy;
        energy.devicePower = row.tdp;
        energy = energy.scaled(row.logicEfficiencyScale,
                               energy.dramEnergyPerByte);
        EnergyReport e = trainingEnergyPerBatch(
            models::gpt175b(), row.sys, par, opts, rep, energy);

        TcoModel tco;
        tco.devicePriceUsd = row.priceUsd;
        TcoReport cost = trainingCost(row.sys, rep.timePerBatch,
                                      batches, e, tco);

        double run_days =
            rep.timePerBatch * double(batches) / 86400.0;
        double mwh = e.total() * double(batches) / 3.6e9;

        out.beginRow()
            .cell(row.label)
            .cell(rep.timePerBatch, 2)
            .cell(run_days, 1)
            .cell(mwh, 0)
            .cell(e.averagePower(rep.timePerBatch) / 1e6, 2)
            .cell(cost.capexUsd / 1e6, 2)
            .cell(cost.energyUsd / 1e6, 2)
            .cell(cost.totalUsd / 1e6, 2);
        out.endRow();
    }
    out.print(std::cout);

    std::cout << "\nContext: the paper's introduction quotes ~$10M "
                 "for the original GPT-3 run. That figure reflects "
                 "V100-class hardware (~10x slower than A100 here) at "
                 "cloud list prices (~4x over amortized capex); "
                 "applying both factors to the A100 row recovers the "
                 "same order of magnitude. The table shows amortized "
                 "owner cost, which newer generations keep shrinking "
                 "despite higher device prices.\n";
    return 0;
}
