/**
 * @file
 * Event-driven pipeline-schedule simulator.
 *
 * The training engine uses closed-form bubble fractions (Sec. 3.2);
 * this module simulates the actual schedules — every forward/backward
 * chunk of every microbatch on every stage, with p2p transfer delays —
 * producing an exact makespan and a per-stage timeline, which
 * traceSchedule lays out in a TraceSession for the one Chrome-trace
 * writer (trace/export.h). Tests verify the closed forms against the
 * simulation.
 */

#ifndef OPTIMUS_PARALLEL_SCHEDULE_SIM_H
#define OPTIMUS_PARALLEL_SCHEDULE_SIM_H

#include <vector>

#include "parallel/config.h"

namespace optimus {

class TraceSession;

/** One executed chunk in the simulated timeline. */
struct SimEvent
{
    int stage = 0;            ///< device (pipeline rank)
    long long microbatch = 0;
    int chunk = 0;            ///< virtual stage index (interleaved)
    bool backward = false;
    double start = 0.0;
    double end = 0.0;
};

/** Simulation inputs. */
struct ScheduleSimParams
{
    PipelineSchedule schedule = PipelineSchedule::OneFOneB;
    int stages = 4;                ///< p
    long long microbatches = 8;    ///< m
    int virtualStages = 1;         ///< v (interleaved)
    double forwardTime = 1.0;      ///< per microbatch per DEVICE
    double backwardTime = 2.0;     ///< per microbatch per DEVICE
    double p2pTime = 0.0;          ///< per boundary crossing
};

/** Simulation outcome. */
struct ScheduleSimResult
{
    std::vector<SimEvent> events;
    double makespan = 0.0;
    double busyPerStage = 0.0;   ///< fwd+bwd work one stage executes
    double bubbleFraction = 0.0; ///< (makespan - busy) / busy
};

/** Run the simulation; throws ConfigError on invalid parameters. */
ScheduleSimResult simulatePipeline(const ScheduleSimParams &params);

/**
 * Emit a simulated timeline into @p session: one lane per stage
 * ("stage<s>"), one span per event named "F mb<i> c<chunk>" or
 * "B mb<i> c<chunk>" with category "forward" or "backward", and a
 * "bubble" span for each idle gap before an event, so every span
 * starts at its simulated start time.
 */
void traceSchedule(const ScheduleSimResult &result,
                   TraceSession &session);

} // namespace optimus

#endif // OPTIMUS_PARALLEL_SCHEDULE_SIM_H
