#include "roofline/gemm.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "util/error.h"

namespace optimus {

namespace {

/** Hardware macro-tile used for shape quantization. */
constexpr long long kQuantM = 16;
constexpr long long kQuantN = 16;
constexpr long long kQuantK = 32;

/** Effective register-level reuse distance per operand. */
constexpr long long kRegisterTile = 128;

/**
 * A GEMM with min(m, n) below this is skinny: its DRAM traffic runs
 * at the GEMV utilization.
 */
constexpr long long kSkinnyThreshold = 32;

long long
roundUp(long long v, long long q)
{
    return (v + q - 1) / q * q;
}

double
ceilDiv(double a, double b)
{
    return std::ceil(a / b);
}

/** Candidate tile edges: powers of two up to dim, plus dim itself. */
std::vector<long long>
tileCandidates(long long dim)
{
    std::vector<long long> out;
    for (long long t = 16; t < dim; t *= 2)
        out.push_back(t);
    out.push_back(dim);
    return out;
}

/**
 * Traffic (bytes) to the outer level for a given tile choice. When
 * tk < k the reduction is split into ceil(k/tk) chunks and the output
 * tile is read and written once per chunk, so the C term scales with
 * the chunk count — the single source of truth for both the search
 * and the streaming fallback.
 */
double
tileTraffic(const GemmShape &s, long long tm, long long tn,
            long long tk, double elem)
{
    double a_reads = double(s.m) * double(s.k) * ceilDiv(double(s.n), double(tn));
    double b_reads = double(s.k) * double(s.n) * ceilDiv(double(s.m), double(tm));
    double c_rw = 2.0 * double(s.m) * double(s.n) *
                  ceilDiv(double(s.k), double(tk));
    return elem * (a_reads + b_reads + c_rw);
}

// ---- Tile-search memo cache -----------------------------------------
//
// Sweeps (planner enumeration, DSE grids, figure drivers) re-run
// searchTile for identical keys thousands of times; the O(tiles^2)
// candidate scan is the engine's hottest loop. The cache is process-
// wide, shared-read (std::shared_mutex), and safe under the exec
// layer's concurrency. searchTile is a pure function of the key, so
// caching can never change results.

struct TileKey
{
    long long m = 0;
    long long n = 0;
    long long k = 0;
    int precision = 0;
    std::uint64_t capacityBits = 0; ///< exact double, bit pattern
    std::uint64_t fillBits = 0;
    bool operator==(const TileKey &) const = default;
};

struct TileKeyHash
{
    size_t operator()(const TileKey &key) const
    {
        // FNV-1a over the key's words: cheap and well-mixed for the
        // handful of distinct shapes a sweep produces.
        std::uint64_t h = 1469598103934665603ull;
        auto mix = [&h](std::uint64_t v) {
            h ^= v;
            h *= 1099511628211ull;
        };
        mix(static_cast<std::uint64_t>(key.m));
        mix(static_cast<std::uint64_t>(key.n));
        mix(static_cast<std::uint64_t>(key.k));
        mix(static_cast<std::uint64_t>(key.precision));
        mix(key.capacityBits);
        mix(key.fillBits);
        return static_cast<size_t>(h);
    }
};

std::shared_mutex tile_cache_mu;
std::unordered_map<TileKey, TileChoice, TileKeyHash> tile_cache;
std::atomic<unsigned long long> tile_cache_hits{0};
std::atomic<unsigned long long> tile_cache_misses{0};
std::atomic<bool> tile_cache_on{true};

} // namespace

double
shapeEfficiency(const GemmShape &shape)
{
    double ideal = double(shape.m) * double(shape.n) * double(shape.k);
    double padded = double(roundUp(shape.m, kQuantM)) *
                    double(roundUp(shape.n, kQuantN)) *
                    double(roundUp(shape.k, kQuantK));
    return ideal / padded;
}

TileCacheStats
tileCacheStats()
{
    TileCacheStats s;
    s.hits = tile_cache_hits.load(std::memory_order_relaxed);
    s.misses = tile_cache_misses.load(std::memory_order_relaxed);
    std::shared_lock lock(tile_cache_mu);
    s.entries = tile_cache.size();
    return s;
}

void
tileCacheClear()
{
    std::unique_lock lock(tile_cache_mu);
    tile_cache.clear();
    tile_cache_hits.store(0, std::memory_order_relaxed);
    tile_cache_misses.store(0, std::memory_order_relaxed);
}

void
tileCacheSetEnabled(bool on)
{
    tile_cache_on.store(on, std::memory_order_relaxed);
}

bool
tileCacheEnabled()
{
    return tile_cache_on.load(std::memory_order_relaxed);
}

TileChoice
searchTile(const GemmShape &shape, double capacity_bytes,
           double fill_factor)
{
    checkPositive(shape.m, "gemm m");
    checkPositive(shape.n, "gemm n");
    checkPositive(shape.k, "gemm k");
    checkPositive(capacity_bytes, "tile search capacity");

    const double elem = precisionBytes(shape.precision);
    const double budget = capacity_bytes * fill_factor / elem;

    // Full-tile shortcut: when the (m, n) output tile leaves room for
    // the whole reduction, the scan's (m, n) candidate gets tk = k and
    // compulsory traffic. Every other candidate has tm < m or tn < n,
    // so one of its ceilDiv terms is >= 2 and its traffic is strictly
    // higher — the scan would return exactly this tile.
    const double full_remaining =
        budget - double(shape.m) * double(shape.n);
    if (full_remaining > 0.0 &&
        static_cast<long long>(full_remaining / (shape.m + shape.n)) >=
            shape.k)
        return {shape.m, shape.n, shape.k,
                tileTraffic(shape, shape.m, shape.n, shape.k, elem)};

    const bool use_cache =
        tile_cache_on.load(std::memory_order_relaxed);
    TileKey key{shape.m, shape.n, shape.k,
                static_cast<int>(shape.precision),
                std::bit_cast<std::uint64_t>(capacity_bytes),
                std::bit_cast<std::uint64_t>(fill_factor)};
    if (use_cache) {
        std::shared_lock lock(tile_cache_mu);
        auto it = tile_cache.find(key);
        if (it != tile_cache.end()) {
            tile_cache_hits.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }

    TileChoice best;
    best.traffic = std::numeric_limits<double>::infinity();

    for (long long tm : tileCandidates(shape.m)) {
        for (long long tn : tileCandidates(shape.n)) {
            // Reserve room for the output tile, then give the rest to
            // the k extent of the A and B tiles.
            double remaining = budget - double(tm) * double(tn);
            if (remaining <= 0.0)
                continue;
            long long tk = static_cast<long long>(remaining / (tm + tn));
            if (tk < 1)
                continue;
            tk = std::min(tk, shape.k);
            double traffic = tileTraffic(shape, tm, tn, tk, elem);
            if (traffic < best.traffic) {
                best = {tm, tn, tk, traffic};
            }
        }
    }

    if (!std::isfinite(best.traffic)) {
        // Cache too small for even the minimal tile: every operand
        // byte streams through without reuse, and the 1-element
        // output chunk is revisited once per k step (same formula as
        // the search, at the degenerate 1x1x1 tile).
        best.tm = 1;
        best.tn = 1;
        best.tk = 1;
        best.traffic = tileTraffic(shape, 1, 1, 1, elem);
    }

    if (use_cache) {
        tile_cache_misses.fetch_add(1, std::memory_order_relaxed);
        std::unique_lock lock(tile_cache_mu);
        tile_cache.emplace(key, best);
    }
    return best;
}

KernelEstimate
estimateGemm(const Device &dev, const GemmShape &shape,
             const std::string &label, const GemmOptions &opts)
{
    checkPositive(shape.m, "gemm m");
    checkPositive(shape.n, "gemm n");
    checkPositive(shape.k, "gemm k");
    checkConfig(!dev.mem.empty(), "device has no memory hierarchy");

    const double elem = precisionBytes(shape.precision);

    KernelEstimate est;
    est.kernel = label;
    est.flops = 2.0 * double(shape.m) * double(shape.n) * double(shape.k);

    // Effective compute throughput. The matrix engine approaches its
    // efficiency ceiling only for large reduction dimensions. A
    // precision the matrix engine lacks runs dequantized at the
    // narrowest wider format it does support (e.g. fp8 operands on an
    // A100 compute at the fp16 tensor-core rate); only formats wider
    // than every supported one fall back to the vector units.
    double matrix_rate = 0.0;
    if (dev.supportsMatrix(shape.precision)) {
        matrix_rate = dev.matrixFlops(shape.precision);
    } else {
        double want = precisionBytes(shape.precision);
        double best_bytes = 1e9;
        for (const auto &[p, f] : dev.matrixThroughput) {
            double b = precisionBytes(p);
            if (b >= want && b < best_bytes) {
                best_bytes = b;
                matrix_rate = f;
            }
        }
    }
    double peak;
    if (matrix_rate > 0.0) {
        double k_eff = double(shape.k) /
                       (double(shape.k) + dev.gemmKHalf);
        peak = matrix_rate * dev.matrixMaxEfficiency * k_eff;
    } else {
        peak = dev.vectorFlops(shape.precision);
    }
    peak *= shapeEfficiency(shape);
    est.computeTime = est.flops / peak;

    const bool skinny = std::min(shape.m, shape.n) < kSkinnyThreshold;

    const size_t levels = dev.mem.size();
    est.bytesPerLevel.assign(levels, 0.0);
    est.memTimePerLevel.assign(levels, 0.0);

    for (size_t i = 0; i < levels; ++i) {
        double bytes;
        if (i + 1 < levels) {
            // Traffic at level i is set by how well the next (inner)
            // level can tile the problem.
            bytes = searchTile(shape, dev.mem[i + 1].capacity).traffic;
        } else if (levels == 1) {
            // Single-level device: assume perfect on-chip reuse, pay
            // only compulsory traffic.
            bytes = elem * (double(shape.m) * shape.k +
                            double(shape.k) * shape.n +
                            2.0 * double(shape.m) * shape.n);
        } else {
            // Innermost scratch: traffic set by the register tile.
            GemmShape reg = shape;
            double a_reads = double(reg.m) * reg.k *
                             ceilDiv(double(reg.n), double(kRegisterTile));
            double b_reads = double(reg.k) * reg.n *
                             ceilDiv(double(reg.m), double(kRegisterTile));
            bytes = elem * (a_reads + b_reads +
                            2.0 * double(reg.m) * reg.n);
        }
        double util = dev.mem[i].utilization;
        if (i == 0 && skinny)
            util = dev.gemvDramUtilization;
        est.bytesPerLevel[i] = bytes;
        est.memTimePerLevel[i] = bytes / (dev.mem[i].bandwidth * util);
    }

    est.overhead = opts.launchOverhead ? dev.kernelLaunchOverhead : 0.0;
    finalizeEstimate(est);

    // Bound-type classification follows the classic roofline (peak
    // matrix rate at the efficiency ceiling, no mainloop penalty), as
    // the paper does: a kernel whose arithmetic intensity sits below
    // the ridge is memory-bound even when an inefficient kernel
    // implementation makes its compute term slow.
    if (matrix_rate > 0.0) {
        double cls_compute =
            est.flops / (matrix_rate * dev.matrixMaxEfficiency *
                         shapeEfficiency(shape));
        double worst = cls_compute;
        est.boundLevel = -1;
        for (size_t i = 0; i < est.memTimePerLevel.size(); ++i) {
            if (est.memTimePerLevel[i] > worst) {
                worst = est.memTimePerLevel[i];
                est.boundLevel = static_cast<int>(i);
            }
        }
    }
    return est;
}

} // namespace optimus
