/**
 * @file
 * Pipeline timeline visualizer: simulate the exact 1F1B and
 * interleaved schedules for GPT-175B on 64 A100s using the model's
 * own per-layer kernel times, compare against the closed-form bubble
 * fractions, and write a chrome://tracing file you can open in any
 * Chromium browser (or https://ui.perfetto.dev).
 */

#include <fstream>
#include <iostream>

#include "core/optimus.h"

using namespace optimus;

int
main()
{
    // Per-stage forward/backward times from the performance model.
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    par.sequenceParallel = true;
    System sys = presets::dgxA100(8);
    TrainingOptions opts;
    opts.recompute = Recompute::Selective;
    TrainingReport rep =
        evaluateTraining(models::gpt175b(), sys, par, 32, opts);

    const long long layers_per_stage = 96 / 8;
    ScheduleSimParams prm;
    prm.stages = 8;
    prm.microbatches = 32;
    prm.forwardTime = rep.layerForward.time * layers_per_stage;
    prm.backwardTime = rep.layerBackward.time * layers_per_stage;
    prm.p2pTime = 30e-6;

    std::cout << "Pipeline timeline, GPT-175B on 64 A100s (TP8 x "
                 "PP8), 32 microbatches\n"
              << "per-stage forward "
              << formatTime(prm.forwardTime) << ", backward "
              << formatTime(prm.backwardTime) << "\n\n";

    Table out({"Schedule", "makespan (s)", "bubble sim (%)",
               "bubble closed-form (%)"});
    struct Case
    {
        const char *name;
        PipelineSchedule sched;
        int v;
    };
    for (const Case &c :
         {Case{"gpipe", PipelineSchedule::GPipe, 1},
          Case{"1f1b", PipelineSchedule::OneFOneB, 1},
          Case{"interleaved v=4", PipelineSchedule::Interleaved1F1B,
               4}}) {
        prm.schedule = c.sched;
        prm.virtualStages = c.v;
        ScheduleSimResult r = simulatePipeline(prm);
        double closed =
            pipelineCost(c.sched, 8, 32, c.v).bubbleFraction;
        out.beginRow()
            .cell(c.name)
            .cell(r.makespan, 3)
            .cell(100.0 * r.bubbleFraction, 2)
            .cell(100.0 * closed, 2);
        out.endRow();

        if (c.sched == PipelineSchedule::Interleaved1F1B) {
            TraceSession session;
            traceSchedule(r, session);
            std::ofstream trace("pipeline_trace.json");
            trace << chromeTraceJson(session).dump() << "\n";
            std::cout << "wrote pipeline_trace.json ("
                      << r.events.size() << " events) - open in "
                      << "chrome://tracing or perfetto\n\n";
        }
    }
    out.print(std::cout);

    std::cout << "\nThe simulator and the closed forms agree; the "
                 "trace shows the warmup ramp, the 1F1B steady "
                 "state, and the shrunken interleaved bubbles.\n";
    return 0;
}
