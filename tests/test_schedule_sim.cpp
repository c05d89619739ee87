/**
 * @file
 * Tests for the event-driven pipeline-schedule simulator, including
 * cross-validation of the closed-form bubble fractions the training
 * engine uses.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "parallel/pipeline.h"
#include "parallel/schedule_sim.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "util/error.h"

namespace optimus {
namespace {

ScheduleSimParams
params(PipelineSchedule sched, int p, long long m, int v = 1)
{
    ScheduleSimParams prm;
    prm.schedule = sched;
    prm.stages = p;
    prm.microbatches = m;
    prm.virtualStages = v;
    prm.forwardTime = 1.0;
    prm.backwardTime = 2.0;
    return prm;
}

TEST(ScheduleSim, OneFOneBMatchesClosedForm)
{
    // Classic result: makespan = (m + p - 1)(tf + tb) with zero p2p,
    // i.e. bubble = (p-1)/m exactly.
    for (int p : {2, 4, 8}) {
        for (long long m : {4LL, 8LL, 32LL}) {
            ScheduleSimResult r = simulatePipeline(
                params(PipelineSchedule::OneFOneB, p, m));
            double expected =
                pipelineCost(PipelineSchedule::OneFOneB, p, m, 1)
                    .bubbleFraction;
            EXPECT_NEAR(r.bubbleFraction, expected, 1e-9)
                << "p=" << p << " m=" << m;
            EXPECT_NEAR(r.makespan, (m + p - 1.0) * 3.0, 1e-9);
        }
    }
}

TEST(ScheduleSim, GPipeMatchesClosedForm)
{
    ScheduleSimResult r =
        simulatePipeline(params(PipelineSchedule::GPipe, 4, 8));
    double expected = pipelineCost(PipelineSchedule::GPipe, 4, 8, 1)
                          .bubbleFraction;
    EXPECT_NEAR(r.bubbleFraction, expected, 1e-9);
}

TEST(ScheduleSim, InterleavingShrinksTheBubble)
{
    // The closed form (p-1)/(m v) should match the simulation when m
    // is a multiple of p.
    ScheduleSimResult v1 = simulatePipeline(
        params(PipelineSchedule::Interleaved1F1B, 4, 8, 1));
    ScheduleSimResult v2 = simulatePipeline(
        params(PipelineSchedule::Interleaved1F1B, 4, 8, 2));
    ScheduleSimResult v4 = simulatePipeline(
        params(PipelineSchedule::Interleaved1F1B, 4, 8, 4));
    EXPECT_LT(v2.bubbleFraction, v1.bubbleFraction);
    EXPECT_LT(v4.bubbleFraction, v2.bubbleFraction);
    EXPECT_NEAR(v2.bubbleFraction,
                pipelineCost(PipelineSchedule::Interleaved1F1B, 4, 8,
                             2)
                    .bubbleFraction,
                0.05);
}

TEST(ScheduleSim, EventAccountingIsComplete)
{
    ScheduleSimResult r = simulatePipeline(
        params(PipelineSchedule::OneFOneB, 4, 8));
    // 2 directions x p stages x m microbatches events.
    EXPECT_EQ(r.events.size(), 2u * 4u * 8u);
    // Per-stage busy time equals the analytic busy time.
    double stage0_busy = 0.0;
    for (const SimEvent &e : r.events)
        if (e.stage == 0)
            stage0_busy += e.end - e.start;
    EXPECT_NEAR(stage0_busy, r.busyPerStage, 1e-9);
}

TEST(ScheduleSim, NoOverlapWithinAStage)
{
    ScheduleSimResult r = simulatePipeline(
        params(PipelineSchedule::Interleaved1F1B, 4, 8, 2));
    for (int s = 0; s < 4; ++s) {
        std::vector<SimEvent> mine;
        for (const SimEvent &e : r.events)
            if (e.stage == s)
                mine.push_back(e);
        std::sort(mine.begin(), mine.end(),
                  [](const SimEvent &a, const SimEvent &b) {
                      return a.start < b.start;
                  });
        for (size_t i = 1; i < mine.size(); ++i)
            EXPECT_GE(mine[i].start, mine[i - 1].end - 1e-12);
    }
}

TEST(ScheduleSim, DependenciesAreRespected)
{
    ScheduleSimResult r = simulatePipeline(
        params(PipelineSchedule::OneFOneB, 4, 4));
    auto find = [&](int stage, long long mb, bool bwd) {
        for (const SimEvent &e : r.events)
            if (e.stage == stage && e.microbatch == mb &&
                e.backward == bwd)
                return e;
        throw ModelError("event not found");
    };
    // Forward flows down the pipeline; backward flows up.
    for (long long mb = 0; mb < 4; ++mb) {
        for (int s = 1; s < 4; ++s) {
            EXPECT_GE(find(s, mb, false).start,
                      find(s - 1, mb, false).end - 1e-12);
            EXPECT_GE(find(s - 1, mb, true).start,
                      find(s, mb, true).end - 1e-12);
        }
        EXPECT_GE(find(3, mb, true).start,
                  find(3, mb, false).end - 1e-12);
    }
}

TEST(ScheduleSim, P2pDelaysStretchTheRamp)
{
    ScheduleSimResult fast = simulatePipeline(
        params(PipelineSchedule::OneFOneB, 8, 16));
    ScheduleSimParams slow_prm =
        params(PipelineSchedule::OneFOneB, 8, 16);
    slow_prm.p2pTime = 0.1;
    ScheduleSimResult slow = simulatePipeline(slow_prm);
    EXPECT_GT(slow.makespan, fast.makespan);
    // The p2p delay stretches only the pipeline ramps, not the
    // steady state: (p-1) hops each way.
    EXPECT_LT(slow.makespan, fast.makespan + 6 * 8 * 0.1);
}

TEST(ScheduleSim, TraceScheduleDecomposesTheTimeline)
{
    // Interleaving with p2p delays leaves idle gaps on every stage.
    ScheduleSimParams prm =
        params(PipelineSchedule::Interleaved1F1B, 4, 8, 2);
    prm.p2pTime = 0.1;
    for (const ScheduleSimParams &p :
         {prm, params(PipelineSchedule::OneFOneB, 2, 2)}) {
        ScheduleSimResult r = simulatePipeline(p);
        TraceSession session;
        traceSchedule(r, session);

        ASSERT_EQ(session.lanes().size(), size_t(p.stages));
        std::vector<double> busy(p.stages, 0.0);
        for (const TraceSpan &s : session.spans()) {
            EXPECT_EQ(session.lanes()[s.lane].name,
                      "stage" + std::to_string(s.lane));
            EXPECT_GT(s.duration, 0.0) << s.name;
            if (s.category == "forward" || s.category == "backward")
                busy[s.lane] += s.duration;
            else
                EXPECT_EQ(s.category, "bubble");
        }
        for (double b : busy)
            EXPECT_NEAR(b, r.busyPerStage, 1e-12 * r.busyPerStage);
        EXPECT_NEAR(session.makespan(), r.makespan,
                    1e-12 * r.makespan);

        const std::string doc = chromeTraceJson(session).dump();
        EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
        EXPECT_NE(doc.find("\"F mb0 c0\""), std::string::npos);
        EXPECT_NE(doc.find("\"B mb1 c0\""), std::string::npos);
    }
}

TEST(ScheduleSim, RejectsBadInputs)
{
    EXPECT_THROW(
        simulatePipeline(params(PipelineSchedule::OneFOneB, 0, 4)),
        ConfigError);
    EXPECT_THROW(
        simulatePipeline(params(PipelineSchedule::OneFOneB, 4, 0)),
        ConfigError);
    // v > 1 needs the interleaved schedule.
    EXPECT_THROW(
        simulatePipeline(params(PipelineSchedule::OneFOneB, 4, 4, 2)),
        ConfigError);
}

} // namespace
} // namespace optimus
