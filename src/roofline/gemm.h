/**
 * @file
 * Hierarchical roofline model for dense matrix multiplication.
 *
 * Follows the DeepFlow approach the paper builds on (Sec. 3.1): for
 * each cache level a capacity-constrained tile search determines the
 * traffic that must cross to the next (outer) memory level; the kernel
 * time is the maximum of the compute time and every per-level transfer
 * time. Skinny GEMMs (auto-regressive inference) additionally apply
 * the DRAM bandwidth-utilization factor of Sec. 4.1.
 */

#ifndef OPTIMUS_ROOFLINE_GEMM_H
#define OPTIMUS_ROOFLINE_GEMM_H

#include <string>

#include "hw/device.h"
#include "roofline/estimate.h"

namespace optimus {

/** Problem shape for C[m,n] = A[m,k] * B[k,n]. */
struct GemmShape
{
    long long m = 1;
    long long n = 1;
    long long k = 1;
    Precision precision = Precision::FP16;
};

/** Per-call options of estimateGemm. */
struct GemmOptions
{
    /**
     * Count kernel launch overhead. Callers fusing several logical
     * GEMMs into one launch disable this on all but the first.
     */
    bool launchOverhead = true;
};

/** Chosen tile for one cache level (elements, not bytes). */
struct TileChoice
{
    long long tm = 0;
    long long tn = 0;
    long long tk = 0;
    double traffic = 0.0;  ///< bytes crossing to the outer level
};

/**
 * Tile search for one cache level: choose (tm, tn, tk) whose working
 * set fits @p capacity_bytes (with a fill factor for double
 * buffering) and that minimizes traffic to the outer memory level.
 *
 * Traffic model for C = A*B with tiles (tm, tn, tk):
 *   bytes = elem * (m*k*ceil(n/tn) + k*n*ceil(m/tm)
 *                   + 2*m*n*ceil(k/tk))
 * i.e. A is re-read once per column block, B once per row block, and
 * the C tile is read+written once per k chunk (once total when the
 * whole reduction fits, tk = k).
 *
 * When the whole problem fits — the (m, n) output tile leaves room for
 * tk = k in the budget capacity*fill/elem — the answer is the full
 * tile at compulsory traffic, returned directly without a scan: every
 * other candidate re-reads A or B at least twice. Per-token decode
 * attention (a few query rows against a few thousand keys) usually
 * takes this path.
 *
 * Only calls that miss the shortcut reach the memo: a process-wide,
 * thread-safe cache keyed by (m, n, k, precision, capacity,
 * fill_factor). searchTile is a pure function of that key, so the
 * cache never changes results. A shortcut return counts as neither a
 * hit nor a miss. See tileCacheStats() / tileCacheClear().
 */
TileChoice searchTile(const GemmShape &shape, double capacity_bytes,
                      double fill_factor = 0.5);

/** Aggregate statistics of the process-wide tile-search memo cache. */
struct TileCacheStats
{
    unsigned long long hits = 0;
    unsigned long long misses = 0;
    size_t entries = 0;

    /** Hit fraction in [0, 1]; 0 when the cache was never queried. */
    double hitRate() const
    {
        unsigned long long total = hits + misses;
        return total == 0 ? 0.0 : double(hits) / double(total);
    }
};

/** Snapshot of the tile-cache counters (thread-safe). */
TileCacheStats tileCacheStats();

/** Drop every cached tile and zero the hit/miss counters. */
void tileCacheClear();

/**
 * Globally enable/disable the memo cache (default on). Disabling
 * bypasses lookup, insertion and the counters — used by benchmarks to
 * A/B the cache itself.
 */
void tileCacheSetEnabled(bool on);
bool tileCacheEnabled();

/**
 * Estimate a GEMM on @p dev.
 *
 * @param dev     target device
 * @param shape   problem shape
 * @param label   kernel label carried into the estimate
 * @param opts    tuning switches
 */
KernelEstimate estimateGemm(const Device &dev, const GemmShape &shape,
                            const std::string &label = "gemm",
                            const GemmOptions &opts = {});

/**
 * Shape-quantization efficiency: the fraction of issued tensor-core
 * work that is useful when m/n/k are not multiples of the hardware
 * macro tile.
 */
double shapeEfficiency(const GemmShape &shape);

} // namespace optimus

#endif // OPTIMUS_ROOFLINE_GEMM_H
