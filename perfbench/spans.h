/**
 * @file
 * Benchmark-side spans: a host-time interval recorded around each call
 * the benchmark makes into one of the library's public functions.
 *
 * Spans nest through a per-thread stack; a span opened on a thread
 * with no open span (a DSE objective running on an exec-layer worker)
 * takes an explicit parent instead. A span's self time is its
 * duration minus the union of its children's intervals, so work two
 * worker threads do at once is not subtracted twice.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two clock readings. */
double seconds(Clock::time_point from, Clock::time_point to);

/** One recorded span; times are seconds since the tracer's epoch. */
struct SpanRecord
{
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = -1.0;  ///< -1 while open
};

/** Totals of every span sharing one name. */
struct SpanTotals
{
    long long count = 0;
    double duration = 0.0;  ///< seconds, children included
    double self = 0.0;      ///< seconds, children excluded
};

/** Thread-safe span store. */
class Tracer
{
  public:
    Tracer() : epoch_(Clock::now()) {}

    /** Open a span under @p parent (-1 = root); returns its id. */
    int open(const std::string &name, int parent);
    /** Close span @p id at the current time. */
    void close(int id);

    /** Duration and self time summed per span name. */
    std::map<std::string, SpanTotals> totals() const;

  private:
    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_;
};

/**
 * RAII span around one library call. A null tracer records nothing,
 * so untraced runs pay one branch per call site.
 */
class Span
{
  public:
    /**
     * Open @p name under the innermost span open on this thread, or
     * under @p fallback_parent when this thread has none.
     */
    Span(Tracer *tracer, const char *name, int fallback_parent = -1);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Id of this span (-1 when not tracing). */
    int id() const { return id_; }

  private:
    Tracer *tracer_;
    int id_ = -1;
    int outer_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
