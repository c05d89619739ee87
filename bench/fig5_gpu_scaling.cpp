/**
 * @file
 * Reproduces paper Fig. 5: GPT-3 175B training-time scaling across
 * GPU generations (A100 -> H100 -> H200 -> B200), with inter-node
 * networks HDR IB / NDR IB / NVLink Switch System (NVS), normalized
 * against B200-NVS-L. "L" rows use the larger 4096 batch enabled by
 * bigger DRAM. Configuration from Table 3: DP-TP-SP-PP = 128-8-8-8
 * (8192 GPUs), interleaved pipeline schedule.
 *
 * Precisions follow the paper's narrative: A100 trains in FP16, H100/
 * H200 use the FP8 transformer engine, B200 uses FP4.
 */

#include <iostream>
#include <vector>

#include "core/optimus.h"

using namespace optimus;

namespace {

struct Config
{
    std::string label;
    System sys;
    Precision precision;
    long long batch;
};

} // namespace

int
main()
{
    std::cout << "Fig. 5: GPT3-175B training scaling across GPU "
                 "generations (Table 3 config: 128-8-8-8, 8192 GPUs)"
              << "\n\n";

    const int nodes = 1024;
    std::vector<Config> configs = {
        {"A100-HDR", presets::dgxA100(nodes), Precision::FP16, 1024},
        {"H100-NDR", presets::dgxH100(nodes), Precision::FP8, 1024},
        {"H100-NVS", presets::dgxH100Nvs(nodes), Precision::FP8, 1024},
        {"H200-NVS", presets::dgxH200Nvs(nodes), Precision::FP8, 1024},
        {"H200-NVS-L", presets::dgxH200Nvs(nodes), Precision::FP8,
         4096},
        {"B200-NDR", presets::dgxB200(nodes), Precision::FP4, 1024},
        {"B200-NVS", presets::dgxB200Nvs(nodes), Precision::FP4, 1024},
        {"B200-NVS-L", presets::dgxB200Nvs(nodes), Precision::FP4,
         4096},
    };

    struct Result
    {
        std::string label;
        TrainingReport rep;
        double throughput = 0.0;  ///< sequences per second
    };

    // The per-generation evaluations are independent; fan them out
    // (OPTIMUS_THREADS controls the width, default serial). Results
    // land by slot, so the table is identical at any thread count.
    std::vector<Result> results = exec::parallelMap(
        static_cast<long long>(configs.size()), resolveThreads(),
        [&](long long idx) {
            const Config &c = configs[static_cast<size_t>(idx)];
            ParallelConfig par;
            par.dataParallel = 128;
            par.tensorParallel = 8;
            par.pipelineParallel = 8;
            par.sequenceParallel = true;
            // Plain PipeDream-Flush, as the paper's batch-size
            // discussion implies: the 1024-batch rows run only 8
            // microbatches per pipeline and pay a large bubble,
            // which the "L" rows amortize (that is how a larger
            // batch "accelerates" here).
            par.schedule = PipelineSchedule::OneFOneB;

            TrainingOptions opts;
            opts.precision = c.precision;
            opts.recompute = Recompute::Selective;

            TrainingReport rep = evaluateTraining(
                models::gpt175b(), c.sys, par, c.batch, opts);
            return Result{c.label, rep,
                          double(c.batch) / rep.timePerBatch};
        });

    // Normalize throughput-per-batch against B200-NVS-L, as in the
    // figure ("training times are normalized against B200-NVS-L").
    double best = results.back().throughput;
    double a100 = results.front().throughput;

    // Ledger entry for the regression sentinel. The per-generation
    // predictions are deterministic regardless of OPTIMUS_THREADS, so
    // this record diffs cleanly against baselines/fig5.json at any
    // fan-out width.
    JsonValue bench_cfg = JsonValue::object();
    bench_cfg.set("bench", JsonValue::string("fig5"));
    bench_cfg.set("nodes", JsonValue::number(double(nodes)));
    bench_cfg.set("configs",
                  JsonValue::number(double(configs.size())));
    report::RunRecord rec =
        report::beginBenchRecord("fig5", std::move(bench_cfg));

    Table out({"System", "Batch", "t/batch (s)", "Compute (%)",
               "Comm (%)", "Other (%)", "Norm. time", "Speedup/A100"});
    for (const Result &r : results) {
        const TrainingBreakdown &t = r.rep.time;
        double total = r.rep.timePerBatch;
        out.beginRow()
            .cell(r.label)
            .cell(r.rep.microbatches * 128)
            .cell(total, 2)
            .cell(100.0 * t.compute() / total, 1)
            .cell(100.0 * t.communication() / total, 1)
            .cell(100.0 * t.other() / total, 1)
            .cell(best / r.throughput, 3)
            .cell(r.throughput / a100, 1);
        out.endRow();

        rec.setMetric(r.label + "/time-per-batch", total);
        rec.setMetric(r.label + "/time-compute", t.compute());
        rec.setMetric(r.label + "/time-comm", t.communication());
        rec.setMetric(r.label + "/time-other", t.other());
        rec.setMetric(r.label + "/norm-time", best / r.throughput);
        rec.setMetric(r.label + "/mfu", r.rep.mfu);
    }
    out.print(std::cout);

    std::cout << "\nA100 -> B200-NVS-L speedup: " << best / a100
              << "x (paper: ~35x following NVIDIA's scaling trend)\n";

    rec.setMetric("speedup/a100-to-b200-nvs-l", best / a100);
    report::writeRunRecord("RUN_fig5.json", rec);
    std::cout << "wrote RUN_fig5.json\n";
    return 0;
}
