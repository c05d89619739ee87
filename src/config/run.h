/**
 * @file
 * A run: the one input the model maps to a prediction. It is read
 * from and written to the config JSON that `optimus_cli` takes and a
 * RunRecord's `config` holds, so a recorded config replays its run.
 */

#ifndef OPTIMUS_CONFIG_RUN_H
#define OPTIMUS_CONFIG_RUN_H

#include "inference/engine.h"
#include "lint/lint.h"
#include "training/trainer.h"
#include "util/json.h"

namespace optimus {

/**
 * A training or inference run. Only the options of its mode are
 * filled: par, batch and training, or inference.
 */
struct Run
{
    TransformerConfig model = {};
    System sys = {};
    bool infer = false;
    ParallelConfig par = {};
    long long batch = 0;
    TrainingOptions training = {};
    InferenceOptions inference = {};
};

namespace config {

/**
 * Read a run config: model and system, then inference for a config
 * with an inference member, else parallel, batch (default 64) and
 * training. An absent option member takes its defaults; any other
 * member is OPT-CFG-025.
 */
Run runFromJson(const JsonValue &j);

/** The canonical config of @p run, in runFromJson's member order. */
JsonValue toJson(const Run &run);

} // namespace config

/** What a run's headline number measures. */
const char *objectiveName(const Run &run);

/** The predicted time of @p run on @p sys: what sensitivity and dse probe. */
double runTime(const Run &run, const System &sys);

/** Every diagnostic of @p run. */
lint::LintReport lintRun(const Run &run);

} // namespace optimus

#endif // OPTIMUS_CONFIG_RUN_H
