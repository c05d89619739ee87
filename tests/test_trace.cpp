/**
 * @file
 * Tests for the trace & metrics layer: the Chrome export is
 * well-formed, per-category span sums reproduce the aggregate
 * reports (the layer's key invariant), counters reset between
 * sessions, and the null sink records nothing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>

#include "dse/search.h"
#include "hw/presets.h"
#include "inference/engine.h"
#include "planner/planner.h"
#include "roofline/report.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "training/trainer.h"
#include "util/json.h"
#include "workload/graph.h"
#include "workload/presets.h"

namespace optimus {
namespace {

void
expectNearRel(double expected, double actual, double rel)
{
    EXPECT_NEAR(expected, actual,
                rel * std::max(1.0, std::abs(expected)));
}

TraceSession
tracedTraining(TrainingReport *out = nullptr)
{
    TraceSession session;
    ParallelConfig par;
    par.dataParallel = 2;
    par.tensorParallel = 4;
    par.pipelineParallel = 2;
    par.sequenceParallel = true;
    TrainingOptions opts;
    opts.recompute = Recompute::Selective;
    opts.trace = &session;
    TrainingReport rep = evaluateTraining(
        models::gpt7b(), presets::dgxA100(2), par, 32, opts);
    if (out != nullptr)
        *out = rep;
    return session;
}

TraceSession
tracedInference(InferenceReport *out = nullptr)
{
    TraceSession session;
    InferenceOptions opts;
    opts.tensorParallel = 2;
    opts.batch = 2;
    opts.promptLength = 256;
    opts.generateLength = 8;
    opts.trace = &session;
    InferenceReport rep = evaluateInference(
        models::llama2_13b(), presets::dgxA100(1), opts);
    if (out != nullptr)
        *out = rep;
    return session;
}

TEST(Trace, NullSinkRecordsNothing)
{
    // nullptr is the null sink: an evaluation without a session
    // returns the same report as one that records into a session.
    ParallelConfig par;
    par.tensorParallel = 4;
    par.pipelineParallel = 2;
    par.dataParallel = 2;
    TraceSession session;
    TrainingOptions traced;
    traced.trace = &session;
    TrainingReport a = evaluateTraining(
        models::gpt7b(), presets::dgxA100(2), par, 32, traced);
    TrainingReport b = evaluateTraining(
        models::gpt7b(), presets::dgxA100(2), par, 32, {});
    EXPECT_FALSE(session.spans().empty());
    EXPECT_EQ(a.timePerBatch, b.timePerBatch);
    EXPECT_EQ(a.mfu, b.mfu);
}

TEST(Trace, TrainingCategorySumsMatchBreakdown)
{
    TrainingReport rep;
    TraceSession session = tracedTraining(&rep);
    std::map<std::string, double> sums = session.categoryTotals();

    const TrainingBreakdown &t = rep.time;
    expectNearRel(t.forward, sums["forward"], 1e-9);
    expectNearRel(t.backward, sums["backward"], 1e-9);
    expectNearRel(t.recompute, sums["recompute"], 1e-9);
    expectNearRel(t.embedding, sums["embedding"], 1e-9);
    expectNearRel(t.tpComm, sums["tp-comm"], 1e-9);
    expectNearRel(t.cpComm, sums["cp-comm"], 1e-9);
    expectNearRel(t.epComm, sums["ep-comm"], 1e-9);
    expectNearRel(t.ppComm, sums["pp-comm"], 1e-9);
    expectNearRel(t.dpComm, sums["dp-comm"], 1e-9);
    expectNearRel(t.bubble, sums["bubble"], 1e-9);
    expectNearRel(t.optimizer, sums["optimizer"], 1e-9);

    // Kernel-detail spans are an inner decomposition, excluded from
    // the breakdown identity; everything else sums to the total.
    double total = 0.0;
    for (const auto &kv : sums)
        if (kv.first != "kernel")
            total += kv.second;
    expectNearRel(rep.timePerBatch, total, 1e-9);

    EXPECT_EQ(session.counter("train/microbatches"),
              double(rep.microbatches));
    EXPECT_DOUBLE_EQ(session.counter("train/time-per-batch-s"),
                     rep.timePerBatch);
}

TEST(Trace, InferenceCategorySumsMatchPhases)
{
    InferenceReport rep;
    TraceSession session = tracedInference(&rep);
    std::map<std::string, double> sums = session.categoryTotals();

    expectNearRel(rep.prefill.computeBoundGemmTime,
                  sums["prefill-gemm-compute"], 1e-9);
    expectNearRel(rep.prefill.memoryBoundGemmTime,
                  sums["prefill-gemm-memory"], 1e-9);
    expectNearRel(rep.prefill.otherKernelTime, sums["prefill-other"],
                  1e-9);
    expectNearRel(rep.prefill.commTime, sums["prefill-comm"], 1e-9);
    expectNearRel(rep.decode.computeBoundGemmTime,
                  sums["decode-gemm-compute"], 1e-9);
    expectNearRel(rep.decode.memoryBoundGemmTime,
                  sums["decode-gemm-memory"], 1e-9);
    expectNearRel(rep.decode.otherKernelTime, sums["decode-other"],
                  1e-9);
    expectNearRel(rep.decode.commTime, sums["decode-comm"], 1e-9);

    double prefill = sums["prefill-gemm-compute"] +
                     sums["prefill-gemm-memory"] +
                     sums["prefill-other"] + sums["prefill-comm"];
    double decode = sums["decode-gemm-compute"] +
                    sums["decode-gemm-memory"] + sums["decode-other"] +
                    sums["decode-comm"];
    expectNearRel(rep.prefill.time, prefill, 1e-9);
    expectNearRel(rep.decode.time, decode, 1e-9);
    expectNearRel(rep.totalLatency, prefill + decode, 1e-9);

    EXPECT_EQ(session.counter("infer/decode-tokens"), 8.0);
}

TEST(Trace, ChromeJsonParsesAndIsMonotonic)
{
    TraceSession session = tracedTraining();
    JsonValue root = JsonValue::parse(chromeTraceJson(session).dump());
    ASSERT_TRUE(root.isObject());
    ASSERT_TRUE(root.has("traceEvents"));
    const JsonValue &events = root.at("traceEvents");
    ASSERT_GT(events.size(), 0u);

    // Per-lane span streams must be monotonic: every complete event
    // has a non-negative start and duration, and consecutive events
    // on one tid never overlap (virtual lanes are sequential).
    std::map<long long, double> lane_end;
    size_t complete = 0;
    for (const JsonValue &e : events.asArray()) {
        std::string ph = e.at("ph").asString();
        ASSERT_TRUE(ph == "X" || ph == "M" || ph == "C");
        if (ph != "X")
            continue;
        ++complete;
        double ts = e.at("ts").asNumber();
        double dur = e.at("dur").asNumber();
        long long tid = e.getInt("tid", 0);
        EXPECT_GE(ts, 0.0);
        EXPECT_GE(dur, 0.0);
        EXPECT_GE(ts, lane_end[tid] - 1e-6) << "overlap on tid " << tid;
        lane_end[tid] = ts + dur;
    }
    EXPECT_EQ(complete, session.spans().size());
}

TEST(Trace, CountersResetBetweenSessions)
{
    TraceSession session;
    session.counterAdd("dse/evaluations");
    session.counterAdd("dse/evaluations");
    session.counterSet("dse/best-objective", 1.5);
    session.emit(session.lane("l"), "x", "forward", 1.0);
    EXPECT_EQ(session.counter("dse/evaluations"), 2.0);
    EXPECT_EQ(session.counterSamples().size(), 3u);

    session.reset();
    EXPECT_EQ(session.counter("dse/evaluations"), 0.0);
    EXPECT_TRUE(session.counters().empty());
    EXPECT_TRUE(session.counterSamples().empty());
    EXPECT_TRUE(session.spans().empty());
    EXPECT_EQ(session.makespan(), 0.0);

    // Lanes survive a reset but their cursors rewind to zero.
    session.emit(session.lane("l"), "y", "forward", 2.0);
    EXPECT_DOUBLE_EQ(session.spans().front().start, 0.0);
}

TEST(Trace, DseCountersAndRoundsSurface)
{
    TechConfig tech;
    tech.node = logicNode("N5");
    tech.dram = dram::hbm3();

    TraceSession session;
    DseOptions opts;
    opts.gridSteps = 3;
    opts.refineRounds = 4;
    opts.trace = &session;
    int rounds_seen = 0;
    int last_evals = 0;
    opts.onRound = [&](const DseRound &r) {
        if (rounds_seen == 0) {
            EXPECT_EQ(r.round, -1);  // grid phase reports first
        }
        ++rounds_seen;
        EXPECT_GE(r.evaluations, last_evals);
        last_evals = r.evaluations;
        EXPECT_GT(r.bestObjective, 0.0);
    };

    DseResult r = optimizeAllocation(
        tech,
        [](const Device &dev) {
            return 1e15 / dev.matrixFlops(Precision::FP16);
        },
        opts);

    EXPECT_GE(rounds_seen, 2);
    EXPECT_EQ(session.counter("dse/evaluations"),
              double(r.evaluations));
    EXPECT_DOUBLE_EQ(session.counter("dse/best-objective"),
                     r.objective);
}

TEST(Trace, PlannerCountersSurface)
{
    TraceSession session;
    TrainingPlannerOptions opts;
    opts.recomputeChoices = {Recompute::Selective};
    opts.trace = &session;
    planTraining(models::gpt7b(), presets::dgxA100(1), 32, opts);

    double enumerated = session.counter("planner/mappings-enumerated");
    double illegal = session.counter("planner/pruned-illegal");
    double memory = session.counter("planner/pruned-memory");
    double evaluated = session.counter("planner/plans-evaluated");
    EXPECT_GT(enumerated, 0.0);
    EXPECT_GT(evaluated, 0.0);
    EXPECT_LE(illegal, enumerated);
    EXPECT_LE(evaluated + memory, enumerated + memory + evaluated);

    TraceSession serving_session;
    ServingPlannerOptions sopts;
    sopts.maxBatch = 8;
    sopts.trace = &serving_session;
    planServing(models::llama2_13b(), presets::dgxA100(1), sopts);
    EXPECT_GT(serving_session.counter("planner/serving-points"), 0.0);
}

TEST(Trace, BoundNamesAreUnified)
{
    Device dev = presets::a100_80gb();
    std::set<std::string> canonical = {"compute"};
    for (const MemoryLevel &lvl : dev.mem)
        canonical.insert(lvl.name);

    EXPECT_EQ(boundLevelName(dev, -1), "compute");
    EXPECT_EQ(boundLevelName(dev, 0), dev.mem[0].name);

    TransformerConfig model = models::llama2_13b();
    InferenceOptions opts;
    opts.promptLength = 256;
    for (const GemmBoundRow &row :
         prefillGemmTable(dev, model, opts)) {
        EXPECT_TRUE(canonical.count(row.boundType))
            << row.name << ": " << row.boundType;
    }

    LayerGraphParams gp;
    gp.batch = 1;
    gp.seq = 256;
    for (const RooflinePoint &pt :
         rooflinePoints(dev, layerForwardOps(model, gp))) {
        EXPECT_TRUE(canonical.count(pt.bound))
            << pt.name << ": " << pt.bound;
    }

    // Kernel spans carry the same canonical names.
    TraceSession session = tracedTraining();
    for (const TraceSpan &s : session.spans()) {
        if (s.isKernel()) {
            EXPECT_TRUE(canonical.count(s.bound))
                << s.name << ": " << s.bound;
        }
    }
}

TEST(Trace, ExportersProduceOutput)
{
    TraceSession session = tracedTraining();
    std::string csv = kernelCsv(session);
    EXPECT_NE(csv.find("lane,name,category"), std::string::npos);
    EXPECT_GT(csv.size(), 200u);

    std::string text = summaryText(session);
    EXPECT_NE(text.find("category"), std::string::npos);
    EXPECT_NE(text.find("forward"), std::string::npos);
    EXPECT_NE(text.find("counter"), std::string::npos);
}

TEST(Trace, KernelCsvEscapesRfc4180)
{
    TraceSession session;
    int lane = session.lane("kernels/fwd");

    TraceSpan comma;
    comma.name = "gemm, fused";
    comma.category = "kernel";
    comma.duration = 1e-3;
    comma.bound = "compute";
    session.emit(lane, comma);

    TraceSpan quoted;
    quoted.name = "attn \"flash\" path";
    quoted.category = "kernel";
    quoted.duration = 2e-3;
    quoted.bound = "DRAM";
    session.emit(lane, quoted);

    TraceSpan newline;
    newline.name = "multi\nline";
    newline.category = "kernel";
    newline.duration = 3e-3;
    newline.bound = "L2";
    session.emit(lane, newline);

    std::string csv = kernelCsv(session);
    // A cell containing a comma is wrapped in quotes...
    EXPECT_NE(csv.find("\"gemm, fused\""), std::string::npos);
    // ...embedded quotes are doubled per RFC 4180...
    EXPECT_NE(csv.find("\"attn \"\"flash\"\" path\""),
              std::string::npos);
    // ...and embedded newlines are quoted rather than row-splitting.
    EXPECT_NE(csv.find("\"multi\nline\""), std::string::npos);

    // Unquoted cells stay unquoted: the header has no escaping.
    EXPECT_NE(csv.find("lane,name,category"), std::string::npos);
}

TEST(Trace, ChromeJsonNamesProcessesAndThreads)
{
    TraceSession session = tracedTraining();
    JsonValue doc = chromeTraceJson(session);
    const std::vector<JsonValue> &events =
        doc.at("traceEvents").asArray();

    bool timeline_named = false;
    bool counters_named = false;
    int thread_names = 0;
    for (const JsonValue &e : events) {
        if (e.getString("ph", "") != "M")
            continue;
        if (e.getString("name", "") == "process_name") {
            const std::string label =
                e.at("args").getString("name", "");
            if (e.getInt("pid", -1) == 0)
                timeline_named = label == "optimus model timeline";
            if (e.getInt("pid", -1) == 1)
                counters_named = label == "optimus counters";
        }
        if (e.getString("name", "") == "thread_name")
            ++thread_names;
    }
    EXPECT_TRUE(timeline_named);
    EXPECT_TRUE(counters_named);
    EXPECT_EQ(thread_names,
              static_cast<int>(session.lanes().size()));
}

} // namespace
} // namespace optimus
