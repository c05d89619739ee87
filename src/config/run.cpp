#include "config/run.h"

#include "config/serialize.h"

namespace optimus {
namespace config {

Run
runFromJson(const JsonValue &j)
{
    static const char *const kMembers[] = {"model",    "system",
                                           "parallel", "batch",
                                           "training", "inference"};
    rejectUnknownFields(j, kMembers, "run member");
    Run run{.model = modelFromJson(j.at("model")),
            .sys = systemFromJson(j.at("system")),
            .infer = j.has("inference")};
    if (run.infer) {
        run.inference = inferenceOptionsFromJson(j.at("inference"));
        return run;
    }
    if (j.has("parallel"))
        run.par = parallelFromJson(j.at("parallel"));
    run.batch = j.getInt("batch", 64);
    if (j.has("training"))
        run.training = trainingOptionsFromJson(j.at("training"));
    return run;
}

JsonValue
toJson(const Run &run)
{
    JsonValue j = JsonValue::object();
    j.set("model", toJson(run.model));
    j.set("system", toJson(run.sys));
    if (run.infer) {
        j.set("inference", toJson(run.inference));
        return j;
    }
    j.set("parallel", toJson(run.par));
    j.set("batch", JsonValue::number(double(run.batch)));
    j.set("training", toJson(run.training));
    return j;
}

} // namespace config

const char *
objectiveName(const Run &run)
{
    return run.infer ? "inference latency" : "training time per batch";
}

double
runTime(const Run &run, const System &sys)
{
    return run.infer
               ? evaluateInference(run.model, sys, run.inference)
                     .totalLatency
               : evaluateTraining(run.model, sys, run.par, run.batch,
                                  run.training)
                     .timePerBatch;
}

lint::LintReport
lintRun(const Run &run)
{
    return run.infer ? lint::lintInference(run.model, run.sys,
                                           run.inference)
                     : lint::lintTraining(run.model, run.sys, run.par,
                                          run.batch, run.training);
}

} // namespace optimus
