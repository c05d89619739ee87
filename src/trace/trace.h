/**
 * @file
 * Kernel-level trace and metrics layer.
 *
 * The paper's deliverable is workload *analysis* — per-kernel bound
 * types (Table 4), time breakdowns (Figs. 5-7), phase anatomy
 * (Fig. 8) — yet an aggregate struct hides which modeled event
 * produced which seconds. A TraceSession records a span for every
 * modeled event (kernels, collectives, p2p hops, bubbles, optimizer
 * steps) laid out on virtual lanes, plus a counter registry for
 * search/analysis statistics (DSE evaluations, planner prunes, ...).
 *
 * Time is *virtual*: the model predicts durations, so each lane keeps
 * a cursor and spans are appended back to back. The key invariant of
 * every instrumented evaluator is that summing span durations per
 * category exactly reproduces the aggregate report (TrainingBreakdown
 * / PhaseReport) — the trace is a verified decomposition of the
 * model, not a parallel implementation.
 *
 * Tracing is opt-in and zero-overhead when off: evaluators take a
 * nullable TraceSession pointer (the null sink), and a disabled
 * session drops every record. Exporters live in trace/export.h.
 */

#ifndef OPTIMUS_TRACE_TRACE_H
#define OPTIMUS_TRACE_TRACE_H

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "roofline/estimate.h"

namespace optimus {

/** One modeled event placed on a virtual lane. */
struct TraceSpan
{
    std::string name;      ///< event label, e.g. "layer-fwd", "qk^T"
    std::string category;  ///< aggregation bucket, e.g. "forward"
    int lane = 0;          ///< index into TraceSession::lanes()
    double start = 0.0;    ///< virtual seconds since run start
    double duration = 0.0; ///< modeled seconds

    // Optional workload coordinates (-1 = not applicable).
    long long microbatch = -1;
    long long layer = -1;
    long long step = -1;   ///< decode token index

    // Optional kernel detail (filled by kernelSpan()).
    double flops = 0.0;
    std::vector<double> bytesPerLevel; ///< traffic per memory level
    double overhead = 0.0;             ///< kernel-launch overhead
    std::string bound;                 ///< canonical binding resource

    /** DRAM traffic (level 0), 0 when unknown. */
    double dramBytes() const
    {
        return bytesPerLevel.empty() ? 0.0 : bytesPerLevel[0];
    }

    /** True when the span carries per-kernel detail. */
    bool isKernel() const { return !bound.empty(); }
};

/** A virtual timeline row (pipeline stage x phase). */
struct TraceLane
{
    std::string name;
    double cursor = 0.0;   ///< end of the last span on this lane
};

/** One sample of a named counter series, in record order. */
struct CounterSample
{
    std::string name;
    double value = 0.0;
};

/**
 * Recording sink for spans and counters. There is no disabled
 * session: evaluators take a nullable TraceSession *, and nullptr is
 * the null sink (one branch per instrumented section).
 *
 * Thread safety: every mutating operation (lane, emit, counterAdd,
 * counterSet, reset) and every scalar read (counter, categoryTotals,
 * makespan) is internally synchronized, so sweeps fanned out through
 * the exec layer may share one session — counter *totals* are
 * deterministic across thread counts (sums commute), while the
 * per-sample record order is scheduling-dependent at threads > 1.
 * The reference-returning inspectors (spans, lanes, counters,
 * counterSamples) are safe only once concurrent recording has
 * quiesced.
 */
class TraceSession
{
  public:
    TraceSession() = default;

    // Movable (the source must be quiescent); not copyable, since
    // concurrent recorders hold pointers to a live session.
    TraceSession(TraceSession &&other) noexcept;
    TraceSession &operator=(TraceSession &&other) noexcept;

    /** Get-or-create the lane named @p name; returns its index. */
    int lane(const std::string &name);

    /**
     * Append @p span (its duration already set) at the cursor of lane
     * @p lane_id and advance the cursor. Returns the span's start
     * time.
     */
    double emit(int lane_id, TraceSpan span);

    /** Convenience emit with name/category/duration only. */
    double emit(int lane_id, const std::string &name,
                const std::string &category, double duration);

    // ---- Counter registry -------------------------------------------

    /** Increment counter @p name by @p delta (default 1). */
    void counterAdd(const std::string &name, double delta = 1.0);

    /** Record a new sample of gauge @p name (e.g. best objective). */
    void counterSet(const std::string &name, double value);

    /** Final value of counter @p name (0 when never touched). */
    double counter(const std::string &name) const;

    /** Clear spans, counters, samples and lane cursors. */
    void reset();

    // ---- Inspection --------------------------------------------------

    const std::vector<TraceSpan> &spans() const { return spans_; }
    const std::vector<TraceLane> &lanes() const { return lanes_; }
    /** Every counterAdd/counterSet sample in record order. */
    const std::vector<CounterSample> &counterSamples() const
    {
        return samples_;
    }
    /** Final value per counter name. */
    const std::map<std::string, double> &counters() const
    {
        return counters_;
    }

    /** Sum of span durations per category. */
    std::map<std::string, double> categoryTotals() const;

    /** End of the busiest lane (the virtual makespan). */
    double makespan() const;

  private:
    /** lane() body; caller must hold mu_. */
    int laneLocked(const std::string &name);

    mutable std::mutex mu_;
    std::vector<TraceLane> lanes_;
    std::vector<TraceSpan> spans_;
    std::vector<CounterSample> samples_;
    std::map<std::string, double> counters_;
    std::map<std::string, int> laneIndex_;
};

/**
 * Build a span carrying the full kernel detail of @p est: duration,
 * FLOPs, per-level traffic, launch overhead and the canonical bound
 * name (boundLevelName, shared with Table 4 / roofline reports).
 */
TraceSpan kernelSpan(const Device &dev, const std::string &name,
                     const std::string &category,
                     const KernelEstimate &est);

} // namespace optimus

#endif // OPTIMUS_TRACE_TRACE_H
