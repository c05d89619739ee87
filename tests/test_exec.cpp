/**
 * @file
 * Tests for the deterministic parallel execution layer (src/exec) and
 * the memoized tile-search cache it feeds: slot-ordered outputs must
 * be bit-identical to serial at every thread count, exceptions must
 * propagate deterministically, and the planner / DSE engines routed
 * through the layer must return byte-identical results at 1 vs 8
 * threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dse/search.h"
#include "exec/exec.h"
#include "hw/presets.h"
#include "planner/planner.h"
#include "roofline/gemm.h"
#include "tech/dram.h"
#include "tech/logic_node.h"
#include "trace/trace.h"
#include "util/units.h"
#include "workload/presets.h"

namespace optimus {
namespace {

TEST(ResolveThreads, ExplicitRequestWins)
{
    setenv("OPTIMUS_THREADS", "7", 1);
    EXPECT_EQ(resolveThreads(3), 3);
    unsetenv("OPTIMUS_THREADS");
}

TEST(ResolveThreads, EnvFallbackAndDefault)
{
    unsetenv("OPTIMUS_THREADS");
    EXPECT_EQ(resolveThreads(), 1);
    EXPECT_EQ(resolveThreads(0), 1);
    EXPECT_EQ(resolveThreads(-4), 1);

    setenv("OPTIMUS_THREADS", "5", 1);
    EXPECT_EQ(resolveThreads(), 5);
    setenv("OPTIMUS_THREADS", "garbage", 1);
    EXPECT_EQ(resolveThreads(), 1);
    setenv("OPTIMUS_THREADS", "-2", 1);
    EXPECT_EQ(resolveThreads(), 1);
    unsetenv("OPTIMUS_THREADS");
}

TEST(ResolveThreads, CapsAbsurdRequests)
{
    EXPECT_LE(resolveThreads(1 << 30), 1024);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 8}) {
        const long long n = 1000;
        std::vector<std::atomic<int>> visits(n);
        exec::parallelFor(n, threads, [&](long long i) {
            visits[static_cast<size_t>(i)].fetch_add(1);
        });
        for (long long i = 0; i < n; ++i)
            EXPECT_EQ(visits[static_cast<size_t>(i)].load(), 1)
                << "index " << i << " at " << threads << " threads";
    }
}

TEST(ParallelFor, HandlesEmptyAndTinyRanges)
{
    std::atomic<int> count{0};
    exec::parallelFor(0, 8, [&](long long) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 0);
    exec::parallelFor(-3, 8, [&](long long) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 0);
    exec::parallelFor(1, 8, [&](long long) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, RethrowsLowestIndexException)
{
    for (int threads : {1, 2, 8}) {
        try {
            exec::parallelFor(100, threads, [&](long long i) {
                if (i == 17 || i == 63)
                    throw std::runtime_error(
                        "boom@" + std::to_string(i));
            });
            FAIL() << "expected exception at " << threads
                   << " threads";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "boom@17");
        }
    }
}

TEST(ParallelMap, MatchesSerialAtEveryThreadCount)
{
    const long long n = 4097;
    auto fn = [](long long i) { return double(i) * 1.5 + 3.0; };
    std::vector<double> serial = exec::parallelMap(n, 1, fn);
    for (int threads : {2, 8}) {
        std::vector<double> par = exec::parallelMap(n, threads, fn);
        ASSERT_EQ(par.size(), serial.size());
        for (long long i = 0; i < n; ++i)
            EXPECT_EQ(par[static_cast<size_t>(i)],
                      serial[static_cast<size_t>(i)]);
    }
}

TEST(TileCache, CountsHitsAndMisses)
{
    tileCacheClear();
    TileCacheStats s0 = tileCacheStats();
    EXPECT_EQ(s0.entries, 0u);

    GemmShape shape{4096, 4096, 4096, Precision::FP16};
    TileChoice first = searchTile(shape, 40 * MiB);
    TileCacheStats s1 = tileCacheStats();
    EXPECT_EQ(s1.misses, s0.misses + 1);
    EXPECT_EQ(s1.entries, 1u);

    TileChoice again = searchTile(shape, 40 * MiB);
    TileCacheStats s2 = tileCacheStats();
    EXPECT_EQ(s2.hits, s1.hits + 1);
    EXPECT_EQ(s2.entries, 1u);
    EXPECT_EQ(again.tm, first.tm);
    EXPECT_EQ(again.tn, first.tn);
    EXPECT_EQ(again.tk, first.tk);
    EXPECT_DOUBLE_EQ(again.traffic, first.traffic);

    // A different capacity is a different key.
    searchTile(shape, 20 * MiB);
    EXPECT_EQ(tileCacheStats().entries, 2u);
    EXPECT_GT(s2.hitRate(), 0.0);
}

TEST(TileCache, DisabledBypassesButStaysCorrect)
{
    tileCacheClear();
    GemmShape shape{2048, 2048, 2048, Precision::FP16};
    TileChoice cached = searchTile(shape, 40 * MiB);

    tileCacheSetEnabled(false);
    EXPECT_FALSE(tileCacheEnabled());
    TileCacheStats before = tileCacheStats();
    TileChoice raw = searchTile(shape, 40 * MiB);
    TileCacheStats after = tileCacheStats();
    tileCacheSetEnabled(true);
    EXPECT_TRUE(tileCacheEnabled());

    // No counter movement while disabled, identical answer.
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(raw.tm, cached.tm);
    EXPECT_EQ(raw.tn, cached.tn);
    EXPECT_EQ(raw.tk, cached.tk);
    EXPECT_DOUBLE_EQ(raw.traffic, cached.traffic);
}

TEST(TileCache, ConcurrentLookupsAgree)
{
    tileCacheClear();
    GemmShape shape{8192, 8192, 8192, Precision::FP16};
    TileChoice serial = searchTile(shape, 40 * MiB);
    std::vector<TileChoice> tiles =
        exec::parallelMap(64, 8, [&](long long) {
            return searchTile(shape, 40 * MiB);
        });
    for (const TileChoice &t : tiles) {
        EXPECT_EQ(t.tm, serial.tm);
        EXPECT_EQ(t.tn, serial.tn);
        EXPECT_EQ(t.tk, serial.tk);
        EXPECT_DOUBLE_EQ(t.traffic, serial.traffic);
    }
    EXPECT_EQ(tileCacheStats().entries, 1u);
}

std::vector<TrainingPlan>
planAt(int threads)
{
    TrainingPlannerOptions opts;
    opts.keep = 50;
    opts.microbatchSizes = {1, 2};
    opts.zeroStages = {0, 1};
    opts.threads = threads;
    return planTraining(models::gpt175b(), presets::dgxA100(16), 128,
                        opts);
}

TEST(DeterministicParallelism, PlannerIsByteIdenticalAcrossThreads)
{
    std::vector<TrainingPlan> serial = planAt(1);
    ASSERT_FALSE(serial.empty());
    for (int threads : {2, 8}) {
        std::vector<TrainingPlan> par = planAt(threads);
        ASSERT_EQ(par.size(), serial.size())
            << "at " << threads << " threads";
        for (size_t i = 0; i < serial.size(); ++i) {
            const TrainingPlan &a = serial[i];
            const TrainingPlan &b = par[i];
            EXPECT_EQ(a.parallel.dataParallel,
                      b.parallel.dataParallel);
            EXPECT_EQ(a.parallel.tensorParallel,
                      b.parallel.tensorParallel);
            EXPECT_EQ(a.parallel.pipelineParallel,
                      b.parallel.pipelineParallel);
            EXPECT_EQ(a.parallel.microbatchSize,
                      b.parallel.microbatchSize);
            EXPECT_EQ(a.parallel.interleavedStages,
                      b.parallel.interleavedStages);
            EXPECT_EQ(a.parallel.sequenceParallel,
                      b.parallel.sequenceParallel);
            EXPECT_EQ(a.options.recompute, b.options.recompute);
            EXPECT_EQ(a.options.memory.zeroStage,
                      b.options.memory.zeroStage);
            // Bit-identical, not approximately equal.
            EXPECT_EQ(a.report.timePerBatch, b.report.timePerBatch);
            EXPECT_EQ(a.report.mfu, b.report.mfu);
            EXPECT_EQ(a.report.memory.total(),
                      b.report.memory.total());
        }
    }
}

TEST(DeterministicParallelism, PlannerTraceCountersMatchAcrossThreads)
{
    TraceSession ser, par;
    TrainingPlannerOptions opts;
    opts.keep = 20;
    opts.threads = 1;
    opts.trace = &ser;
    planTraining(models::gpt175b(), presets::dgxA100(16), 128, opts);
    opts.threads = 8;
    opts.trace = &par;
    planTraining(models::gpt175b(), presets::dgxA100(16), 128, opts);
    for (const char *c : {"planner/mappings-enumerated",
                          "planner/pruned-illegal",
                          "planner/pruned-memory",
                          "planner/plans-evaluated"})
        EXPECT_EQ(ser.counter(c), par.counter(c)) << c;
}

DseResult
dseAt(int threads)
{
    TechConfig tech;
    tech.node = logicNode("N5");
    tech.dram = dram::hbm3_26();
    DseOptions opts;
    opts.gridSteps = 4;
    opts.refineRounds = 16;
    opts.threads = threads;
    return optimizeAllocation(
        tech,
        [](const Device &dev) {
            return estimateGemm(dev,
                                {4096, 4096, 4096, Precision::FP16})
                .time;
        },
        opts);
}

TEST(DeterministicParallelism, DseIsByteIdenticalAcrossThreads)
{
    DseResult serial = dseAt(1);
    for (int threads : {2, 8}) {
        DseResult par = dseAt(threads);
        EXPECT_EQ(par.allocation.computeAreaFraction,
                  serial.allocation.computeAreaFraction);
        EXPECT_EQ(par.allocation.computePowerFraction,
                  serial.allocation.computePowerFraction);
        EXPECT_EQ(par.objective, serial.objective);
        EXPECT_EQ(par.evaluations, serial.evaluations);
    }
}

TEST(TraceThreadSafety, ConcurrentCounterAddsSumExactly)
{
    TraceSession session;
    exec::parallelFor(1000, 8, [&](long long) {
        session.counterAdd("hits", 1);
    });
    EXPECT_EQ(session.counter("hits"), 1000.0);
}

} // namespace
} // namespace optimus
