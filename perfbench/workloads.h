/**
 * @file
 * The benchmark's workloads. Each one draws a deck of requests from
 * the seed, and runs one request at a time through the library's
 * public API as a closed loop with one client. A request checks its
 * own outputs and hashes every number it predicted.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"

namespace perfbench {

/** FNV-1a hash of every predicted number, plus a validity flag. */
class Predictions
{
  public:
    /** Fold in one prediction; non-finite or negative ones fail. */
    void add(double v);
    std::uint64_t digest() const { return hash_; }
    bool valid() const { return valid_; }

  private:
    std::uint64_t hash_ = 14695981039346656037ull;
    bool valid_ = true;
};

/** Host-independent counts a request reports. */
struct Counts
{
    long long evals = 0;          ///< model evaluations completed
    long long plans = 0;          ///< plans the benchmark lowered
    long long steps = 0;          ///< steps in those plans
    long long sweeps = 0;         ///< planTraining calls
    long long candidates = 0;     ///< plans the planner evaluated
    double prunedIllegal = 0.0;   ///< planner trace counters
    double prunedMemory = 0.0;
    long long searches = 0;       ///< optimizeAllocation calls
    long long objectiveCalls = 0; ///< summed DseResult::evaluations
    long long tracedEvals = 0;    ///< evaluations with the trace on
    long long traceSpans = 0;     ///< library spans they emitted
    long long records = 0;        ///< RunRecords serialized
    double recordBytes = 0.0;     ///< their dumped size

    void add(const Counts &o);
};

/** What one request produced. */
struct Outcome
{
    Predictions preds;
    Counts counts;
    std::string failure;  ///< first failed output check; empty = pass
    /** Output check to run after the request's timing stops. */
    std::function<void(Outcome &)> deferredCheck;

    /** Record @p what as the failure unless @p ok. */
    void check(bool ok, const std::string &what);
};

/** How a request runs. */
struct RunContext
{
    int threads = 1;  ///< worker threads for the library's sweeps
    /**
     * Benchmark spans. When set, composite calls are split into the
     * public stage functions they run (lower, evaluate, fold), each
     * under its own span, and the planner records its trace counters.
     */
    Tracer *tracer = nullptr;
};

/** Per-layer quantities measured by replays outside the requests. */
struct ReplayStats
{
    Counts counts;                  ///< plans lowered by the replays
    long long opCalls = 0;          ///< evaluateOp calls
    double opSeconds = 0.0;
    long long collectiveCalls = 0;  ///< systemCollective calls
    double collectiveSeconds = 0.0;
    long long partsPriced = 0;      ///< compute parts evaluated
    long long cacheEntries = 0;     ///< distinct benchmark-cache entries
    long long sweeps = 0;           ///< planTraining calls at 1 thread
    double sweepSeconds = 0.0;
    double candidateSeconds = 0.0;  ///< replayed candidate evaluations
    long long tracedEvals = 0;      ///< traced vs untraced evaluations
    double tracedSeconds = 0.0;
    double untracedSeconds = 0.0;
    long long traceSpans = 0;
    long long failures = 0;         ///< replays that disagreed
};

/** One input property of a deck, for the pre-run summary. */
struct SummaryItem
{
    std::string key;
    double value = 0.0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;
    /** Threads the workload hands to the library's sweeps. */
    virtual int threads() const { return 1; }

    /** Draw the request deck from @p seed (same seed, same deck). */
    virtual void generate(std::uint64_t seed) = 0;
    virtual size_t size() const = 0;
    /** Shape of the deck: lets two seeds be compared before timing. */
    virtual std::vector<SummaryItem> summary() const = 0;
    /**
     * Deck items each set-up runs once. Chosen by construction, not by
     * position, so set-up costs about the same on every seed.
     */
    virtual std::vector<size_t> warmup() const = 0;

    /** Untimed set-up before each request (e.g. a cold memo). */
    virtual void prepare() {}
    /** Run deck item @p i. Throws on a library error. */
    virtual Outcome run(size_t i, const RunContext &ctx) = 0;
    /**
     * Call the layers' public functions again on item @p i's own
     * configuration, outside any timed request; stage spans go to
     * @p tracer.
     */
    virtual void replay(size_t i, Tracer &tracer, ReplayStats &out) = 0;
};

/** The workloads, by name, in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

/** A fresh workload called @p name; null when there is none. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
