/**
 * @file
 * google-benchmark microbenchmarks of the analytical engine itself:
 * how fast the model evaluates kernels, training batches, inference
 * runs and DSE searches. DSE sweeps (Fig. 6) run thousands of
 * evaluations, so engine throughput is a real usability property.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>

#include "core/optimus.h"

using namespace optimus;

namespace {

void
BM_GemmEstimate(benchmark::State &state)
{
    Device dev = presets::a100_80gb();
    GemmShape s{state.range(0), state.range(0), state.range(0),
                Precision::FP16};
    for (auto _ : state) {
        benchmark::DoNotOptimize(estimateGemm(dev, s));
    }
}
BENCHMARK(BM_GemmEstimate)->Arg(512)->Arg(4096)->Arg(16384);

void
BM_TileSearch(benchmark::State &state)
{
    GemmShape s{8192, 8192, 8192, Precision::FP16};
    for (auto _ : state) {
        benchmark::DoNotOptimize(searchTile(s, 40 * MiB));
    }
}
BENCHMARK(BM_TileSearch);

void
BM_TrainingEvaluation(benchmark::State &state)
{
    System sys = presets::dgxA100(8);
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            evaluateTraining(models::gpt175b(), sys, par, 64, {}));
    }
}
BENCHMARK(BM_TrainingEvaluation);

void
BM_InferenceEvaluation(benchmark::State &state)
{
    System sys = presets::dgxA100(1);
    InferenceOptions opts;
    opts.tensorParallel = state.range(0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            evaluateInference(models::llama2_13b(), sys, opts));
    }
}
BENCHMARK(BM_InferenceEvaluation)->Arg(1)->Arg(8);

void
BM_MemoryFootprint(benchmark::State &state)
{
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    for (auto _ : state) {
        benchmark::DoNotOptimize(trainingMemoryPerDevice(
            models::gpt175b(), par, 64,
            {.recompute = Recompute::Selective}));
    }
}
BENCHMARK(BM_MemoryFootprint);

void
BM_TrainingEvaluationTraced(benchmark::State &state)
{
    System sys = presets::dgxA100(8);
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    TraceSession session;
    TrainingOptions opts;
    opts.trace = &session;
    for (auto _ : state) {
        session.reset();
        benchmark::DoNotOptimize(
            evaluateTraining(models::gpt175b(), sys, par, 64, opts));
    }
}
BENCHMARK(BM_TrainingEvaluationTraced);

/** The serialize stage: the traced eval above as Chrome JSON text. */
void
BM_ChromeTraceExport(benchmark::State &state)
{
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    TraceSession session;
    TrainingOptions opts;
    opts.trace = &session;
    evaluateTraining(models::gpt175b(), presets::dgxA100(8), par, 64,
                     opts);
    for (auto _ : state)
        benchmark::DoNotOptimize(chromeTraceJson(session).dump());
    state.counters["spans"] = double(session.spans().size());
}
BENCHMARK(BM_ChromeTraceExport)->Unit(benchmark::kMillisecond);

/** The same run as a RunRecord, serialized to JSON text. */
void
BM_RunRecordJson(benchmark::State &state)
{
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    const report::RunRecord rec = report::recordTraining(
        models::gpt175b(), presets::dgxA100(8), par, 64, {});
    for (auto _ : state)
        benchmark::DoNotOptimize(report::toJson(rec).dump());
}
BENCHMARK(BM_RunRecordJson);

void
BM_DseSearch(benchmark::State &state)
{
    TechConfig tech;
    tech.node = logicNode("N5");
    tech.dram = dram::hbm3_26();
    DseOptions opts;
    opts.gridSteps = 3;
    opts.refineRounds = 8;
    for (auto _ : state) {
        DseResult r = optimizeAllocation(
            tech,
            [](const Device &dev) {
                return estimateGemm(dev, {4096, 4096, 4096,
                                          Precision::FP16})
                    .time;
            },
            opts);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_DseSearch);

/**
 * Direct A/B timing of evaluateTraining with tracing disabled vs
 * enabled, written as BENCH_trace_overhead.json. The disabled path is
 * the acceptance gate: a nullptr trace pointer must stay within noise
 * of the pre-instrumentation engine. Returns the report for the
 * combined RunRecord.
 */
JsonValue
writeTraceOverheadReport()
{
    using clock = std::chrono::steady_clock;
    System sys = presets::dgxA100(8);
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    TransformerConfig model = models::gpt175b();

    const int warmup = 3;
    const int iters = 30;

    auto time_one = [&](TraceSession *session) {
        TrainingOptions opts;
        opts.trace = session;
        for (int i = 0; i < warmup; ++i) {
            if (session != nullptr)
                session->reset();
            benchmark::DoNotOptimize(
                evaluateTraining(model, sys, par, 64, opts));
        }
        clock::time_point t0 = clock::now();
        for (int i = 0; i < iters; ++i) {
            if (session != nullptr)
                session->reset();
            benchmark::DoNotOptimize(
                evaluateTraining(model, sys, par, 64, opts));
        }
        return std::chrono::duration<double, std::nano>(clock::now() -
                                                        t0)
                   .count() /
               iters;
    };

    double disabled_ns = time_one(nullptr);
    TraceSession session;
    double enabled_ns = time_one(&session);

    JsonValue out = JsonValue::object();
    out.set("benchmark", JsonValue::string("trace_overhead"));
    out.set("workload", JsonValue::string(
                            "evaluateTraining gpt-175b dgx-a100 x8"));
    out.set("disabled_ns_per_eval", JsonValue::number(disabled_ns));
    out.set("enabled_ns_per_eval", JsonValue::number(enabled_ns));
    out.set("spans_per_eval",
            JsonValue::number(double(session.spans().size())));
    out.set("overhead_pct",
            JsonValue::number(100.0 * (enabled_ns - disabled_ns) /
                              disabled_ns));

    std::ofstream f("BENCH_trace_overhead.json");
    f << out.dump(2) << "\n";
    std::cout << "trace overhead: disabled " << disabled_ns / 1e6
              << " ms/eval, enabled " << enabled_ns / 1e6
              << " ms/eval -> BENCH_trace_overhead.json\n";
    return out;
}

/**
 * Serial-vs-parallel A/B of the two sweep-shaped engines (planner
 * enumeration and DSE search) plus a tile-cache on/off A/B, written
 * as BENCH_sweep_speedup.json. The acceptance gates: results must be
 * bit-identical across thread counts (divergences == 0), and on a
 * multi-core host the 8-thread sweep must not be slower than serial.
 * Returns the report for the combined RunRecord.
 */
JsonValue
writeSweepSpeedupReport()
{
    using clock = std::chrono::steady_clock;
    const int kThreads = 8;

    TransformerConfig model = models::gpt175b();
    System sys = presets::dgxA100(16);
    TrainingPlannerOptions popts;
    popts.keep = 64;
    popts.microbatchSizes = {1, 2};

    auto time_best_of = [&](int reps, const auto &fn) {
        double best = 1e300;
        for (int i = 0; i < reps; ++i) {
            clock::time_point t0 = clock::now();
            fn();
            double ms = std::chrono::duration<double, std::milli>(
                            clock::now() - t0)
                            .count();
            best = std::min(best, ms);
        }
        return best;
    };

    // Cold sweep with a cleared cache: measures the sweep's intrinsic
    // key reuse (hit rate) rather than leftovers from the
    // micro-benchmarks above.
    tileCacheClear();
    popts.threads = 1;
    std::vector<TrainingPlan> serial_plans =
        planTraining(model, sys, 128, popts);
    TileCacheStats cache = tileCacheStats();

    // Warm-cache timings: serial, parallel, and cache-disabled.
    double planner_serial_ms = time_best_of(3, [&] {
        popts.threads = 1;
        benchmark::DoNotOptimize(planTraining(model, sys, 128, popts));
    });
    std::vector<TrainingPlan> parallel_plans;
    double planner_parallel_ms = time_best_of(3, [&] {
        popts.threads = kThreads;
        parallel_plans = planTraining(model, sys, 128, popts);
    });
    tileCacheSetEnabled(false);
    double planner_uncached_ms = time_best_of(3, [&] {
        popts.threads = 1;
        benchmark::DoNotOptimize(planTraining(model, sys, 128, popts));
    });
    tileCacheSetEnabled(true);

    long long planner_divergences = 0;
    if (serial_plans.size() != parallel_plans.size()) {
        planner_divergences =
            static_cast<long long>(serial_plans.size()) -
            static_cast<long long>(parallel_plans.size());
        if (planner_divergences < 0)
            planner_divergences = -planner_divergences;
    } else {
        for (size_t i = 0; i < serial_plans.size(); ++i) {
            const TrainingPlan &a = serial_plans[i];
            const TrainingPlan &b = parallel_plans[i];
            bool same =
                a.parallel.dataParallel == b.parallel.dataParallel &&
                a.parallel.tensorParallel ==
                    b.parallel.tensorParallel &&
                a.parallel.pipelineParallel ==
                    b.parallel.pipelineParallel &&
                a.parallel.microbatchSize ==
                    b.parallel.microbatchSize &&
                a.options.recompute == b.options.recompute &&
                a.options.memory.zeroStage ==
                    b.options.memory.zeroStage &&
                a.report.timePerBatch == b.report.timePerBatch &&
                a.report.mfu == b.report.mfu &&
                a.report.memory.total() == b.report.memory.total();
            if (!same)
                ++planner_divergences;
        }
    }

    // DSE A/B: a training-shaped objective heavy enough that the
    // fan-out has real work per probe.
    TechConfig tech;
    tech.node = logicNode("N5");
    tech.dram = dram::hbm3_26();
    TransformerConfig dse_model = models::gpt7b();
    ParallelConfig dse_par;
    dse_par.dataParallel = 4;
    dse_par.tensorParallel = 4;
    dse_par.pipelineParallel = 2;
    dse_par.sequenceParallel = true;
    TrainingOptions dse_topts;
    dse_topts.recompute = Recompute::Selective;
    DeviceObjective dse_objective = [&](const Device &dev) {
        System s = makeSystem(dev, 8, 4, presets::nvlink4(),
                              nettech::gdrX8());
        return evaluateTraining(dse_model, s, dse_par, 128,
                                dse_topts)
            .timePerBatch;
    };
    DseOptions dopts;
    dopts.gridSteps = 4;
    dopts.refineRounds = 12;

    dopts.threads = 1;
    DseResult dse_serial =
        optimizeAllocation(tech, dse_objective, dopts);
    double dse_serial_ms = time_best_of(2, [&] {
        dopts.threads = 1;
        benchmark::DoNotOptimize(
            optimizeAllocation(tech, dse_objective, dopts));
    });
    DseResult dse_parallel;
    double dse_parallel_ms = time_best_of(2, [&] {
        dopts.threads = kThreads;
        dse_parallel = optimizeAllocation(tech, dse_objective, dopts);
    });
    long long dse_divergences = 0;
    if (dse_serial.allocation.computeAreaFraction !=
            dse_parallel.allocation.computeAreaFraction ||
        dse_serial.allocation.computePowerFraction !=
            dse_parallel.allocation.computePowerFraction ||
        dse_serial.objective != dse_parallel.objective ||
        dse_serial.evaluations != dse_parallel.evaluations)
        dse_divergences = 1;

    JsonValue out = JsonValue::object();
    out.set("benchmark", JsonValue::string("sweep_speedup"));
    out.set("hardware_concurrency",
            JsonValue::number(double(hardwareThreads())));
    out.set("threads_parallel", JsonValue::number(double(kThreads)));
    out.set("planner_workload", JsonValue::string(
                                    "planTraining gpt-175b dgx-a100 "
                                    "x16, batch 128, micro {1,2}"));
    out.set("planner_serial_ms", JsonValue::number(planner_serial_ms));
    out.set("planner_parallel_ms",
            JsonValue::number(planner_parallel_ms));
    out.set("planner_speedup",
            JsonValue::number(planner_serial_ms / planner_parallel_ms));
    out.set("planner_uncached_ms",
            JsonValue::number(planner_uncached_ms));
    out.set("tile_cache_speedup",
            JsonValue::number(planner_uncached_ms / planner_serial_ms));
    out.set("planner_plans",
            JsonValue::number(double(serial_plans.size())));
    out.set("planner_divergences",
            JsonValue::number(double(planner_divergences)));
    out.set("dse_workload", JsonValue::string(
                                "optimizeAllocation N5+HBM3, gpt-7b "
                                "training objective, grid 4, rounds "
                                "12"));
    out.set("dse_serial_ms", JsonValue::number(dse_serial_ms));
    out.set("dse_parallel_ms", JsonValue::number(dse_parallel_ms));
    out.set("dse_speedup",
            JsonValue::number(dse_serial_ms / dse_parallel_ms));
    out.set("dse_divergences",
            JsonValue::number(double(dse_divergences)));
    out.set("tile_cache_hits", JsonValue::number(double(cache.hits)));
    out.set("tile_cache_misses",
            JsonValue::number(double(cache.misses)));
    out.set("tile_cache_hit_rate_pct",
            JsonValue::number(100.0 * cache.hitRate()));

    std::ofstream f("BENCH_sweep_speedup.json");
    f << out.dump(2) << "\n";
    std::cout << "sweep speedup: planner " << planner_serial_ms
              << " ms serial / " << planner_parallel_ms << " ms at "
              << kThreads << " threads ("
              << planner_divergences + dse_divergences
              << " divergences), tile cache "
              << 100.0 * cache.hitRate()
              << "% hits -> BENCH_sweep_speedup.json\n";
    return out;
}

/**
 * Fold the two JSON reports into one RunRecord ledger entry
 * (RUN_perf_engine.json). Wall-clock timings vary run to run, so
 * this record is informational -- it is NOT gated against a baseline
 * by the regression sentinel, unlike the prediction benches.
 */
void
writePerfEngineRecord(const JsonValue &overhead, const JsonValue &sweep)
{
    JsonValue bench_cfg = JsonValue::object();
    bench_cfg.set("bench", JsonValue::string("perf-engine"));
    report::RunRecord rec =
        report::beginBenchRecord("perf-engine", std::move(bench_cfg));

    auto fold = [&rec](const std::string &prefix, const JsonValue &v) {
        for (const auto &member : v.asObject()) {
            if (member.second.isNumber())
                rec.setMetric(prefix + "/" + member.first,
                              member.second.asNumber());
            else if (member.second.isString())
                rec.setAttr(prefix + "/" + member.first,
                            member.second.asString());
        }
    };
    fold("trace-overhead", overhead);
    fold("sweep-speedup", sweep);

    report::writeRunRecord("RUN_perf_engine.json", rec);
    std::cout << "wrote RUN_perf_engine.json\n";
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    JsonValue overhead = writeTraceOverheadReport();
    JsonValue sweep = writeSweepSpeedupReport();
    writePerfEngineRecord(overhead, sweep);
    return 0;
}
