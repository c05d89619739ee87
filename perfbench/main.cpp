/**
 * @file
 * perfbench: host-time benchmark of the optimus engine.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Sets the workload up, then runs its deck as a closed loop with one
 * client for --seconds. With --trace 0 it sets up ten more times
 * between passes (the median of the eleven is setup_s) and reports the
 * end-to-end metrics; with --trace 1 it splits the time between an
 * untraced and a traced loop, makes one
 * cold single-thread pass for the exact-repeat counts, replays the
 * layers on the first few requests, and reports the per-layer
 * metrics. The last line of stdout is one JSON object; see README.md.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "report/version.h"
#include "roofline/gemm.h"
#include "spans.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/** Taken during static initialization, before main runs. */
const Clock::time_point kProcessStart = Clock::now();

constexpr int kSetups = 11;        ///< setups per run (median = setup_s)
constexpr size_t kMaxReports = 5;  ///< failures printed per run

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i], val = argv[i + 1];
        try {
            if (key == "--workload")
                a.workload = val;
            else if (key == "--seed")
                a.seed = std::stoull(val);
            else if (key == "--seconds")
                a.seconds = std::stod(val);
            else if (key == "--trace")
                a.trace = std::stoi(val) != 0;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
loadAvg()
{
    double l[3] = {0.0, 0.0, 0.0};
    if (getloadavg(l, 3) != 3)
        return "null";
    return "[" + num(l[0]) + ", " + num(l[1]) + ", " + num(l[2]) + "]";
}

/** One timed request. */
struct Sample
{
    size_t item = 0;
    double latency = 0.0;  ///< host seconds
    double cpu = 0.0;      ///< process CPU seconds (all threads)
    long long evals = 0;
};

/** Requests run by one loop, and what they measured. */
struct LoopStats
{
    std::vector<Sample> samples;
    long long attempted = 0;
    long long failed = 0;
    Counts counts;
    unsigned long long tileHits = 0;
    unsigned long long tileMisses = 0;
};

/**
 * Each deck item's fastest pass. The host is shared: other tenants
 * only ever add time, in bursts of seconds, so the fastest of a
 * request's passes is its steady-state cost.
 */
struct BestOfPasses
{
    std::vector<double> latency;  ///< per item, seconds
    std::vector<double> cpu;      ///< per item, seconds
    std::vector<long long> evals; ///< per item
    size_t passes = 0;

    BestOfPasses(const LoopStats &s, size_t deck)
        : latency(deck, -1.0), cpu(deck, -1.0), evals(deck, 0)
    {
        for (const Sample &x : s.samples) {
            double &l = latency[x.item], &c = cpu[x.item];
            l = l < 0.0 ? x.latency : std::min(l, x.latency);
            c = c < 0.0 ? x.cpu : std::min(c, x.cpu);
            evals[x.item] = x.evals;
        }
        passes = deck ? s.samples.size() / deck : 0;
    }

    double p50() const { return median(latency); }
};

/** Runs requests, checks them, and keeps each item's first digest. */
class Runner
{
  public:
    explicit Runner(Workload &w) : w_(w) {}

    /** Untimed prepare, the timed request, then its output checks. */
    void
    runOnce(size_t i, const RunContext &ctx, LoopStats &stats)
    {
        w_.prepare();
        optimus::TileCacheStats tile0 = optimus::tileCacheStats();
        double cpu0 = cpuSeconds();
        Clock::time_point t0 = Clock::now();
        Outcome o;
        try {
            Span request(ctx.tracer, "request");
            o = w_.run(i, ctx);
        } catch (const std::exception &e) {
            o.failure = std::string("threw: ") + e.what();
        }
        Clock::time_point t1 = Clock::now();
        double cpu1 = cpuSeconds();
        optimus::TileCacheStats tile1 = optimus::tileCacheStats();

        if (o.failure.empty()) {
            try {
                if (o.deferredCheck)
                    o.deferredCheck(o);
            } catch (const std::exception &e) {
                o.check(false, std::string("check threw: ") + e.what());
            }
            o.check(o.preds.valid(), "non-finite or negative prediction");
            if (reference_.size() != w_.size())
                reference_.assign(w_.size(), std::nullopt);
            if (!reference_[i])
                reference_[i] = o.preds.digest();
            o.check(*reference_[i] == o.preds.digest(),
                    "predictions differ from the first run of this "
                    "request");
        }

        stats.samples.push_back(
            Sample{i, seconds(t0, t1), cpu1 - cpu0, o.counts.evals});
        stats.attempted += 1;
        stats.counts.add(o.counts);
        stats.tileHits += tile1.hits - tile0.hits;
        stats.tileMisses += tile1.misses - tile0.misses;
        if (!o.failure.empty()) {
            stats.failed += 1;
            if (reported_++ < kMaxReports)
                std::cerr << "perfbench: " << w_.name() << " request " << i
                          << " failed: " << o.failure << "\n";
        }
    }

    /**
     * Whole passes over the deck, in order, for at most @p budget
     * seconds (at least one pass): every pass has the same mix.
     * @p betweenPasses, when given, runs after each pass, untimed.
     */
    LoopStats
    loop(double budget, Tracer *tracer,
         const std::function<void()> &betweenPasses = nullptr)
    {
        LoopStats stats;
        RunContext ctx;
        ctx.threads = w_.threads();
        ctx.tracer = tracer;
        Clock::time_point start = Clock::now();
        double pass = 0.0;
        do {
            Clock::time_point p0 = Clock::now();
            for (size_t i = 0; i < w_.size(); ++i)
                runOnce(i, ctx, stats);
            pass = seconds(p0, Clock::now());
            if (betweenPasses)
                betweenPasses();
        } while (seconds(start, Clock::now()) + pass <= budget);
        return stats;
    }

    /** Digest of every request's predictions, in deck order. */
    std::uint64_t
    digest() const
    {
        Predictions p;
        for (const auto &d : reference_)  // 52 bits: exact in a double
            p.add(d ? double(*d >> 12) : 0.0);
        return p.digest();
    }

  private:
    Workload &w_;
    std::vector<std::optional<std::uint64_t>> reference_;
    size_t reported_ = 0;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    bool measured = true;  ///< false: the workload skips this layer
};

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

/** Mean self time per span of @p name, seconds. */
double
perSpan(const std::map<std::string, SpanTotals> &t, const std::string &name)
{
    auto it = t.find(name);
    return it == t.end() ? 0.0 : ratio(it->second.self, it->second.count);
}

bool
has(const std::map<std::string, SpanTotals> &t, const std::string &name)
{
    return t.count(name) > 0;
}

std::vector<Metric>
endToEnd(const BestOfPasses &b, const std::vector<double> &setups,
         double *tail_pct)
{
    // Every timed request, charged its item's best time.
    std::vector<double> all;
    double busy = 0.0, cpu = 0.0, evals = 0.0;
    for (size_t i = 0; i < b.latency.size(); ++i) {
        all.insert(all.end(), b.passes, b.latency[i]);
        busy += b.latency[i];
        cpu += b.cpu[i];
        evals += double(b.evals[i]);
    }
    std::sort(all.begin(), all.end());
    const size_t n = all.size();
    // The highest percentile with at least ten requests beyond it.
    double tail = n > 10 ? all[n - 11] : all.back();
    *tail_pct = n > 10 ? 100.0 * double(n - 10) / double(n) : 100.0;

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {
        {"latency_p50_ms", b.p50() * 1e3, "ms"},
        {"latency_tail_ms", tail * 1e3, "ms"},
        {"evals_per_s", ratio(evals, busy), "1/s"},
        {"cpu_ms_per_request",
         ratio(cpu, double(b.latency.size())) * 1e3, "ms"},
        {"peak_rss_mb", double(ru.ru_maxrss) / 1024.0, "MiB"},
        {"setup_s", median(setups), "s"},
    };
}

std::vector<Metric>
perLayer(double untraced_p50, double traced_p50, const LoopStats &traced,
         const std::map<std::string, SpanTotals> &loopT,
         const LoopStats &anchor, const ReplayStats &rs,
         const std::map<std::string, SpanTotals> &replayT,
         double one_thread, double two_threads)
{
    // Plan stages come from the traced requests when they lower plans
    // themselves, and from the replays when a library call hides them
    // (the planner's candidate evaluations).
    const bool inLoop = traced.counts.plans > 0;
    const auto &stageT = inLoop ? loopT : replayT;
    const Counts &stageC = inLoop ? traced.counts : rs.counts;
    const Counts &stepsC = anchor.counts.plans > 0 ? anchor.counts
                                                   : rs.counts;
    const Counts &a = anchor.counts;
    const bool planned = stageC.plans > 0;
    auto evalSelf = [&](const std::string &name) {
        auto it = stageT.find(name);
        return it == stageT.end() ? 0.0 : it->second.self;
    };
    auto spanMean = [&](const std::string &name) {
        auto it = loopT.find(name);
        return it == loopT.end()
                   ? 0.0
                   : ratio(it->second.duration, it->second.count);
    };
    const SpanTotals request =
        loopT.count("request") ? loopT.at("request") : SpanTotals{};
    const double lookups = double(anchor.tileHits + anchor.tileMisses);
    const bool records = a.records > 0;

    return {
        {"plan.steps_per_eval", ratio(stepsC.steps, stepsC.plans), "count",
         stepsC.plans > 0},
        {"plan.lower_ms", perSpan(stageT, "plan.lower") * 1e3, "ms",
         planned},
        {"plan.evaluate_ms", perSpan(stageT, "plan.evaluate") * 1e3, "ms",
         planned},
        {"plan.evaluate_ns_per_step",
         ratio(evalSelf("plan.evaluate"), double(stageC.steps)) * 1e9, "ns",
         planned},
        {"plan.fold_ms", perSpan(stageT, "plan.fold") * 1e3, "ms", planned},
        {"plan.memo_reuse_ratio",
         ratio(double(rs.partsPriced), double(rs.cacheEntries)), "ratio",
         rs.cacheEntries > 0},
        {"plan.json_dump_ms", perSpan(loopT, "plan.json_dump") * 1e3, "ms",
         has(loopT, "plan.json_dump")},
        {"roofline.tile_searches_per_eval",
         ratio(double(anchor.tileMisses), double(a.evals)), "count",
         a.evals > 0},
        {"roofline.tile_memo_hit_rate",
         ratio(double(anchor.tileHits), lookups), "ratio", lookups > 0},
        {"roofline.op_estimate_us",
         ratio(rs.opSeconds, double(rs.opCalls)) * 1e6, "us",
         rs.opCalls > 0},
        {"comm.collective_us",
         ratio(rs.collectiveSeconds, double(rs.collectiveCalls)) * 1e6,
         "us", rs.collectiveCalls > 0},
        {"planner.candidates_per_sweep",
         ratio(double(a.candidates), double(a.sweeps)), "count",
         a.sweeps > 0},
        {"planner.evaluated_fraction",
         ratio(double(a.candidates),
               double(a.candidates) + a.prunedIllegal + a.prunedMemory),
         "ratio", a.sweeps > 0},
        {"planner.enumerate_ms",
         ratio(rs.sweepSeconds - rs.candidateSeconds, double(rs.sweeps)) *
             1e3,
         "ms", rs.sweeps > 0},
        {"exec.parallel_speedup", ratio(one_thread, two_threads), "x",
         two_threads > 0.0},
        {"dse.objective_calls_per_search",
         ratio(double(a.objectiveCalls), double(a.searches)), "count",
         a.searches > 0},
        {"dse.objective_ms", spanMean("dse.objective") * 1e3, "ms",
         has(loopT, "dse.objective")},
        {"dse.search_self_ms", perSpan(loopT, "dse.search") * 1e3, "ms",
         has(loopT, "dse.search")},
        {"trace.spans_per_eval",
         ratio(double(a.traceSpans), double(a.tracedEvals)), "count",
         a.tracedEvals > 0},
        {"trace.ns_per_span",
         ratio(rs.tracedSeconds - rs.untracedSeconds,
               double(rs.traceSpans)) * 1e9,
         "ns", rs.traceSpans > 0},
        {"trace.chrome_export_ms",
         perSpan(loopT, "trace.chrome_export") * 1e3, "ms",
         has(loopT, "trace.chrome_export")},
        {"report.record_ms", perSpan(loopT, "report.record") * 1e3, "ms",
         has(loopT, "report.record")},
        {"report.serialize_ms", perSpan(loopT, "report.serialize") * 1e3,
         "ms", has(loopT, "report.serialize")},
        {"report.parse_ms", perSpan(loopT, "report.parse") * 1e3, "ms",
         has(loopT, "report.parse")},
        {"report.diff_ms", perSpan(loopT, "report.diff") * 1e3, "ms",
         has(loopT, "report.diff")},
        {"report.record_kb", ratio(a.recordBytes, double(a.records)) / 1024,
         "KiB", records},
        {"inference.serving_plan_ms",
         perSpan(loopT, "inference.serving_plan") * 1e3, "ms",
         has(loopT, "inference.serving_plan")},
        {"inference.speculative_ms",
         perSpan(loopT, "inference.speculative") * 1e3, "ms",
         has(loopT, "inference.speculative")},
        {"bench.unattributed_pct",
         ratio(request.self, request.duration) * 100.0, "%", true},
        {"bench.trace_overhead_pct",
         (ratio(traced_p50, untraced_p50) - 1.0) * 100.0,
         "%", true},
    };
}

void
printMetrics(const std::vector<Metric> &ms)
{
    for (const Metric &m : ms) {
        if (m.measured)
            std::printf("perfbench metric %-32s %14.6g %s\n",
                        m.name.c_str(), m.value, m.unit.c_str());
        else
            std::printf("perfbench metric %-32s %14s (layer not "
                        "exercised; reported as 0)\n",
                        m.name.c_str(), "n/a");
    }
}

std::string
resultJson(bool correct, long long attempted, long long failed,
           const std::vector<Metric> &ms)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (size_t k = 0; k < ms.size(); ++k)
        os << (k ? ", " : "") << "\"" << ms[k].name << "\": {\"value\": "
           << num(ms[k].measured ? ms[k].value : 0.0) << ", \"unit\": \""
           << ms[k].unit << "\"}";
    os << "}}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1>\n";
        return 2;
    }
    std::unique_ptr<Workload> w = makeWorkload(args.workload);
    if (!w) {
        std::cerr << "perfbench: unknown workload '" << args.workload
                  << "'\n";
        return 2;
    }
    const std::string loadStart = loadAvg();

    // ---- Set-up: clear the tile memo, draw the deck, warm up --------
    Runner runner(*w);
    LoopStats warm;
    RunContext plain;
    plain.threads = w->threads();
    auto setUp = [&](Clock::time_point t0) {
        optimus::tileCacheClear();
        w->generate(args.seed);
        for (size_t i : w->warmup())
            runner.runOnce(i, plain, warm);
        return seconds(t0, Clock::now());
    };
    std::vector<double> setups = {setUp(kProcessStart)};

    std::printf("perfbench inputs {\"workload\": \"%s\", \"seed\": %llu",
                w->name().c_str(),
                static_cast<unsigned long long>(args.seed));
    for (const SummaryItem &s : w->summary())
        std::printf(", \"%s\": %s", s.key.c_str(), num(s.value).c_str());
    std::printf("}\n");
    std::fflush(stdout);

    long long attempted = 0, failed = 0;
    std::vector<Metric> metrics;
    std::string anchors;
    if (!args.trace) {
        // The other set-ups run between passes, spread over the run, so
        // that a burst of load from other tenants skews only a few.
        const double every = args.seconds / kSetups;
        Clock::time_point last = Clock::now();
        LoopStats s = runner.loop(args.seconds, nullptr, [&] {
            if (setups.size() < size_t(kSetups) &&
                seconds(last, Clock::now()) >= every) {
                setups.push_back(setUp(Clock::now()));
                last = Clock::now();
            }
        });
        while (setups.size() < size_t(kSetups))
            setups.push_back(setUp(Clock::now()));
        std::printf("perfbench setup_s [");
        for (size_t r = 0; r < setups.size(); ++r)
            std::printf("%s%s", r ? ", " : "", num(setups[r]).c_str());
        std::printf("]\n");

        attempted += warm.attempted + s.attempted;
        failed += warm.failed + s.failed;
        BestOfPasses best(s, w->size());
        double tailPct = 0.0;
        metrics = endToEnd(best, setups, &tailPct);
        std::printf("perfbench requests %zu in %zu passes, tail "
                    "percentile p%.2f, failed_pct %s\n",
                    s.samples.size(), best.passes, tailPct,
                    num(ratio(double(failed), double(attempted)) * 100)
                        .c_str());
    } else {
        LoopStats untraced = runner.loop(args.seconds / 2, nullptr);
        Tracer loopTracer;
        LoopStats traced = runner.loop(args.seconds / 2, &loopTracer);

        // Cold single-thread pass: the exact-repeat counts, and the
        // check that one thread predicts what the sweeps' two did. The
        // tracer makes requests run their stages one by one, which is
        // where the step counts come from.
        optimus::tileCacheClear();
        Tracer anchorTracer;
        LoopStats anchor;
        RunContext one;
        one.tracer = &anchorTracer;
        for (size_t i = 0; i < w->size(); ++i)
            runner.runOnce(i, one, anchor);

        // Replays on the first requests of the deck.
        Tracer replayTracer;
        ReplayStats rs;
        const size_t replays = std::min<size_t>(8, w->size());
        for (size_t i = 0; i < replays; ++i) {
            w->prepare();
            try {
                w->replay(i, replayTracer, rs);
            } catch (const std::exception &e) {
                rs.failures += 1;
                std::cerr << "perfbench: replay " << i
                          << " threw: " << e.what() << "\n";
            }
        }
        double oneThread = 0.0, twoThreads = 0.0;
        if (w->threads() > 1) {
            LoopStats ab;
            RunContext serial, parallel;
            parallel.threads = w->threads();
            for (size_t i = 0; i < replays; ++i) {
                for (int k = 0; k < 2; ++k) {
                    bool oneNow = (i + k) % 2 == 0;  // alternate order
                    runner.runOnce(i, oneNow ? serial : parallel, ab);
                    (oneNow ? oneThread : twoThreads) +=
                        ab.samples.back().latency;
                }
            }
            attempted += ab.attempted;
            failed += ab.failed;
        }

        attempted += warm.attempted + untraced.attempted +
                     traced.attempted + anchor.attempted +
                     static_cast<long long>(replays);
        failed += warm.failed + untraced.failed + traced.failed +
                  anchor.failed + rs.failures;
        metrics = perLayer(BestOfPasses(untraced, w->size()).p50(),
                           BestOfPasses(traced, w->size()).p50(), traced,
                           loopTracer.totals(), anchor,
                           rs, replayTracer.totals(), oneThread,
                           twoThreads);

        std::ostringstream os;
        os << "{";
        for (const Metric &m : metrics)
            if (m.unit == "count")
                os << "\"" << m.name << "\": " << num(m.value) << ", ";
        os << "\"tile_lookups\": " << anchor.tileHits + anchor.tileMisses
           << ", \"digest\": \"" << hex(runner.digest()) << "\"}";
        anchors = os.str();
    }

    printMetrics(metrics);
    if (!anchors.empty())
        std::printf("perfbench anchors %s\n", anchors.c_str());
    std::printf("perfbench digest %s\n", hex(runner.digest()).c_str());
    std::printf("perfbench host {\"nproc\": %ld, \"load_start\": %s, "
                "\"load_end\": %s, \"compiler\": \"%s\", \"build_type\": "
                "\"%s\", \"git_sha\": \"%s\"}\n",
                sysconf(_SC_NPROCESSORS_ONLN), loadStart.c_str(),
                loadAvg().c_str(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                optimus::report::gitSha());
    std::printf("%s\n",
                resultJson(failed == 0, attempted, failed, metrics).c_str());
    return 0;
}
