/**
 * @file
 * Unit tests for the hierarchical roofline engines: tile search, GEMM
 * estimation, GEMV utilization models and stream kernels.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hw/presets.h"
#include "roofline/gemm.h"
#include "roofline/gemv.h"
#include "roofline/stream.h"
#include "util/error.h"
#include "util/units.h"

namespace optimus {
namespace {

TEST(TileSearch, WholeProblemFitsCacheGivesCompulsoryTraffic)
{
    GemmShape s{256, 256, 256, Precision::FP16};
    // 256^2 * 3 * 2B = 384 KiB working set; give it 4 MiB.
    TileChoice t = searchTile(s, 4 * MiB, 0.5);
    double compulsory = 2.0 * (256.0 * 256 + 256.0 * 256 +
                               2.0 * 256 * 256);
    EXPECT_DOUBLE_EQ(t.traffic, compulsory);
}

TEST(TileSearch, SmallerCacheMeansMoreTraffic)
{
    GemmShape s{8192, 8192, 8192, Precision::FP16};
    double big = searchTile(s, 40 * MiB).traffic;
    double small = searchTile(s, 1 * MiB).traffic;
    double tiny = searchTile(s, 64 * KiB).traffic;
    EXPECT_LT(big, small);
    EXPECT_LT(small, tiny);
}

TEST(TileSearch, DegenerateCacheFallsBackToStreaming)
{
    GemmShape s{128, 128, 128, Precision::FP16};
    TileChoice t = searchTile(s, 64.0, 0.5);  // absurdly small cache
    // Streaming bound at the degenerate 1x1x1 tile: every A and B
    // element refetched per use, and the single-element C chunk
    // read+written once per k step — the same formula the search
    // scores finite tiles with.
    double stream = 2.0 * (128.0 * 128 * 128 * 2 +
                           2.0 * 128 * 128 * 128);
    EXPECT_DOUBLE_EQ(t.traffic, stream);
}

TEST(TileSearch, KSplitTrafficCountsOutputRevisits)
{
    // A cache that cannot hold full-k tiles forces tk < k; the C
    // term must then scale with ceil(k/tk) rather than staying at
    // 2*m*n (the pre-fix model silently ignored k-splitting).
    GemmShape s{4096, 4096, 4096, Precision::FP16};
    TileChoice t = searchTile(s, 1 * MiB, 0.5);
    ASSERT_GT(t.tk, 0);
    ASSERT_LT(t.tk, s.k);
    double chunks = std::ceil(double(s.k) / double(t.tk));
    double expected =
        2.0 * (double(s.m) * s.k *
                   std::ceil(double(s.n) / double(t.tn)) +
               double(s.k) * s.n *
                   std::ceil(double(s.m) / double(t.tm)) +
               2.0 * double(s.m) * s.n * chunks);
    EXPECT_DOUBLE_EQ(t.traffic, expected);
}

TEST(TileSearch, TileRespectsCapacity)
{
    GemmShape s{4096, 4096, 4096, Precision::FP16};
    TileChoice t = searchTile(s, 1 * MiB, 0.5);
    double footprint = (double(t.tm) * t.tk + double(t.tk) * t.tn +
                        double(t.tm) * t.tn) * 2.0;
    EXPECT_LE(footprint, 1 * MiB * 0.5 + 1.0);
}

/**
 * Reference copy of searchTile's candidate scan, with neither the
 * full-tile shortcut nor the memo.
 */
TileChoice
scanTile(const GemmShape &s, double capacity, double fill)
{
    const double elem = precisionBytes(s.precision);
    const double budget = capacity * fill / elem;
    auto candidates = [](long long dim) {
        std::vector<long long> out;
        for (long long t = 16; t < dim; t *= 2)
            out.push_back(t);
        out.push_back(dim);
        return out;
    };
    auto traffic = [&](long long tm, long long tn, long long tk) {
        return elem *
               (double(s.m) * double(s.k) *
                    std::ceil(double(s.n) / double(tn)) +
                double(s.k) * double(s.n) *
                    std::ceil(double(s.m) / double(tm)) +
                2.0 * double(s.m) * double(s.n) *
                    std::ceil(double(s.k) / double(tk)));
    };
    TileChoice best;
    best.traffic = std::numeric_limits<double>::infinity();
    for (long long tm : candidates(s.m))
        for (long long tn : candidates(s.n)) {
            double remaining = budget - double(tm) * double(tn);
            if (remaining <= 0.0)
                continue;
            long long tk = static_cast<long long>(remaining / (tm + tn));
            if (tk < 1)
                continue;
            tk = std::min(tk, s.k);
            double t = traffic(tm, tn, tk);
            if (t < best.traffic)
                best = {tm, tn, tk, t};
        }
    if (!std::isfinite(best.traffic))
        best = {1, 1, 1, traffic(1, 1, 1)};
    return best;
}

/** Largest k whose full (m, n, k) tile fits; 0 when none does. */
long long
fullTileMaxK(long long m, long long n, double capacity, double fill,
             Precision p)
{
    const double remaining =
        capacity * fill / precisionBytes(p) - double(m) * double(n);
    return remaining > 0.0 ? static_cast<long long>(remaining / (m + n))
                           : 0;
}

/**
 * searchTile equals the reference scan exactly; a call the full-tile
 * shortcut answers leaves the memo counters alone, every other call
 * counts one hit or miss.
 */
void
expectMatchesScan(const GemmShape &s, double capacity, double fill)
{
    SCOPED_TRACE(std::to_string(s.m) + "x" + std::to_string(s.n) + "x" +
                 std::to_string(s.k) + " " + precisionName(s.precision) +
                 " cap " + std::to_string(capacity) + " fill " +
                 std::to_string(fill));
    const TileCacheStats before = tileCacheStats();
    const TileChoice got = searchTile(s, capacity, fill);
    const TileCacheStats after = tileCacheStats();
    const TileChoice want = scanTile(s, capacity, fill);
    EXPECT_EQ(want.tm, got.tm);
    EXPECT_EQ(want.tn, got.tn);
    EXPECT_EQ(want.tk, got.tk);
    EXPECT_EQ(want.traffic, got.traffic);

    const bool fits =
        fullTileMaxK(s.m, s.n, capacity, fill, s.precision) >= s.k;
    const unsigned long long lookups = (after.hits + after.misses) -
                                       (before.hits + before.misses);
    EXPECT_EQ(fits ? 0u : 1u, lookups);
    if (fits) {
        EXPECT_EQ(before.entries, after.entries);
    }
}

TEST(TileSearch, FullTileShortcutMatchesScan)
{
    tileCacheClear();
    const long long dims[] = {1, 7, 16, 17, 128, 1000, 4096, 8192};
    for (Precision p : {Precision::FP32, Precision::FP16, Precision::FP8})
        for (double capacity : {192.0 * KiB, 1.0 * MiB, 40.0 * MiB})
            for (double fill : {0.5, 0.75, 1.0})
                for (long long m : dims)
                    for (long long n : dims) {
                        for (long long k : dims)
                            expectMatchesScan({m, n, k, p}, capacity,
                                              fill);
                        // Exactly at the fit boundary, and one element
                        // of k past it.
                        const long long kmax =
                            fullTileMaxK(m, n, capacity, fill, p);
                        if (kmax < 1)
                            continue;
                        expectMatchesScan({m, n, kmax, p}, capacity,
                                          fill);
                        expectMatchesScan({m, n, kmax + 1, p}, capacity,
                                          fill);
                    }
    tileCacheClear();
}

TEST(ShapeEfficiency, QuantizationPenalty)
{
    EXPECT_DOUBLE_EQ(
        shapeEfficiency({4096, 4096, 4096, Precision::FP16}), 1.0);
    double skinny = shapeEfficiency({1, 4096, 4096, Precision::FP16});
    EXPECT_NEAR(skinny, 1.0 / 16.0, 1e-12);
    double odd = shapeEfficiency({200, 4096, 4096, Precision::FP16});
    EXPECT_GT(odd, 0.9);
    EXPECT_LT(odd, 1.0);
}

TEST(Gemm, FatGemmIsComputeBoundOnA100)
{
    Device dev = presets::a100_80gb();
    GemmShape s{8192, 8192, 8192, Precision::FP16};
    KernelEstimate est = estimateGemm(dev, s, "fat");
    EXPECT_TRUE(est.computeBound());
    // Time is at least FLOPs / peak and not absurdly larger.
    double ideal = est.flops / dev.matrixFlops(Precision::FP16);
    EXPECT_GE(est.time, ideal);
    EXPECT_LE(est.time, ideal * 2.5);
}

TEST(Gemm, SkinnyGemmIsDramBound)
{
    Device dev = presets::a100_80gb();
    GemmShape s{1, 4096, 4096, Precision::FP16};
    KernelEstimate est = estimateGemm(dev, s, "skinny");
    EXPECT_TRUE(est.dramBound());
    EXPECT_EQ(est.boundName(dev), "DRAM");
    // Weight matrix dominates the traffic.
    double weight_bytes = 4096.0 * 4096.0 * 2.0;
    EXPECT_NEAR(est.bytesPerLevel[0], weight_bytes,
                0.02 * weight_bytes);
}

TEST(Gemm, SkinnyUsesGemvUtilization)
{
    Device dev = presets::a100_80gb();
    GemmShape s{1, 8192, 8192, Precision::FP16};
    KernelEstimate est = estimateGemm(dev, s, "skinny");
    double expected = est.bytesPerLevel[0] /
                      (dev.dram().bandwidth * dev.gemvDramUtilization);
    EXPECT_NEAR(est.memTimePerLevel[0], expected, expected * 1e-9);
}

TEST(Gemm, FasterDeviceIsFaster)
{
    GemmShape s{4096, 4096, 4096, Precision::FP16};
    double a = estimateGemm(presets::a100_80gb(), s).time;
    double h = estimateGemm(presets::h100_sxm(), s).time;
    EXPECT_LT(h, a);
}

TEST(Gemm, Fp8DoublesThroughputOnH100)
{
    Device dev = presets::h100_sxm();
    GemmShape s16{8192, 8192, 8192, Precision::FP16};
    GemmShape s8{8192, 8192, 8192, Precision::FP8};
    double t16 = estimateGemm(dev, s16).computeTime;
    double t8 = estimateGemm(dev, s8).computeTime;
    EXPECT_NEAR(t8, t16 / 2.0, t16 * 0.01);
}

TEST(Gemm, RejectsBadShape)
{
    Device dev = presets::a100_80gb();
    EXPECT_THROW(estimateGemm(dev, {0, 8, 8, Precision::FP16}),
                 ConfigError);
    EXPECT_THROW(estimateGemm(dev, {8, -1, 8, Precision::FP16}),
                 ConfigError);
}

TEST(Gemm, LaunchOverheadToggle)
{
    Device dev = presets::a100_80gb();
    GemmShape s{64, 64, 64, Precision::FP16};
    GemmOptions with;
    GemmOptions without;
    without.launchOverhead = false;
    double t_with = estimateGemm(dev, s, "g", with).time;
    double t_without = estimateGemm(dev, s, "g", without).time;
    EXPECT_NEAR(t_with - t_without, dev.kernelLaunchOverhead, 1e-12);
}

TEST(Gemv, ClusteredUtilizationGrowsWithSize)
{
    GemvUtilizationCurve curve;
    EXPECT_LT(curve.utilization(10 * KB), curve.utilization(10 * MB));
    EXPECT_LE(curve.utilization(1 * GB), curve.maxUtilization);
}

TEST(Gemv, ConstantVsClusteredAgreeForLargeMatrices)
{
    Device dev = presets::a100_80gb();
    KernelEstimate c = estimateGemv(dev, 8192, 8192, Precision::FP16,
                                    "gemv", GemvUtilMode::Constant);
    KernelEstimate k = estimateGemv(dev, 8192, 8192, Precision::FP16,
                                    "gemv", GemvUtilMode::Clustered);
    double err = std::abs(c.time - k.time) / k.time;
    EXPECT_LT(err, 0.15);
}

TEST(Gemv, SmallKernelsDominatedByOverhead)
{
    Device dev = presets::a100_80gb();
    KernelEstimate est = estimateGemv(dev, 64, 64, Precision::FP16);
    EXPECT_GT(est.overhead / est.time, 0.5);
}

TEST(Gemv, AlwaysMemoryBoundOnGpu)
{
    Device dev = presets::h100_sxm();
    KernelEstimate est = estimateGemv(dev, 4096, 16384,
                                      Precision::FP16);
    EXPECT_TRUE(est.dramBound());
}

TEST(Stream, SoftmaxIsMemoryBound)
{
    Device dev = presets::a100_80gb();
    KernelEstimate est = estimateSoftmax(dev, 1 << 20, 2048,
                                         Precision::FP16);
    EXPECT_TRUE(est.dramBound());
    double bytes = 2.0 * double(1 << 20) * 2048.0 * 2.0;
    EXPECT_DOUBLE_EQ(est.bytesPerLevel[0], bytes);
}

TEST(Stream, FusionRemovesLaunch)
{
    Device dev = presets::a100_80gb();
    KernelEstimate fused = estimateElementwise(dev, "gelu", 1e6, 4.0,
                                               Precision::FP16, false);
    KernelEstimate alone = estimateElementwise(dev, "gelu", 1e6, 4.0,
                                               Precision::FP16, true);
    EXPECT_DOUBLE_EQ(fused.overhead, 0.0);
    EXPECT_NEAR(alone.time - fused.time, dev.kernelLaunchOverhead,
                1e-12);
}

TEST(Stream, RejectsNegativeWork)
{
    Device dev = presets::a100_80gb();
    EXPECT_THROW(estimateStream(dev, "x", -1.0, 0.0, Precision::FP16),
                 ConfigError);
}

TEST(Estimate, CombinePreservesTotals)
{
    Device dev = presets::a100_80gb();
    KernelEstimate a = estimateGemm(dev, {512, 512, 512,
                                          Precision::FP16});
    KernelEstimate b = estimateSoftmax(dev, 1024, 1024,
                                       Precision::FP16);
    KernelEstimate c = combineEstimates("sum", a, b);
    EXPECT_DOUBLE_EQ(c.flops, a.flops + b.flops);
    EXPECT_DOUBLE_EQ(c.time, a.time + b.time);
    EXPECT_DOUBLE_EQ(c.bytesPerLevel[0],
                     a.bytesPerLevel[0] + b.bytesPerLevel[0]);
}

// Property sweep: time decreases monotonically as DRAM bandwidth
// scales, for a memory-bound shape.
class DramScalingTest : public ::testing::TestWithParam<double>
{};

TEST_P(DramScalingTest, SkinnyGemmScalesWithBandwidth)
{
    Device dev = presets::a100_80gb();
    Device faster = presets::withDram(dev, "X",
                                      dev.dram().bandwidth * GetParam(),
                                      dev.dram().capacity);
    GemmShape s{1, 8192, 8192, Precision::FP16};
    double base = estimateGemm(dev, s).memTimePerLevel[0];
    double scaled = estimateGemm(faster, s).memTimePerLevel[0];
    EXPECT_NEAR(scaled, base / GetParam(), base * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DramScalingTest,
                         ::testing::Values(1.5, 2.0, 3.0, 4.0));

} // namespace
} // namespace optimus
