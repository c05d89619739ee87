/**
 * @file
 * RunRecord: the durable, schema-versioned ledger entry of one model
 * evaluation.
 *
 * The paper's value is its *predictions* (Tables 1-2, Figs. 3-9), yet
 * an `optimus_cli` or bench invocation normally prints a table and
 * vanishes — there is no record to compare against after a code
 * change. A RunRecord is the canonical JSON artifact of one
 * trainer / inference / planner / DSE / bench run: the build identity
 * (tool version, schema version, git SHA), a stable fingerprint of
 * the (model, system, mapping) configuration, wall-clock and thread
 * count, the top-level metric breakdown, per-kernel aggregates with
 * FLOPs / traffic / bound class (folded from the evaluated plan), the
 * counter registry totals, and any validation-table rows.
 *
 * Records written by `optimus_cli record` (or the always-on bench
 * emitters) are diffed by report/diff.h and gated in CI against the
 * golden baselines under baselines/.
 */

#ifndef OPTIMUS_REPORT_RECORD_H
#define OPTIMUS_REPORT_RECORD_H

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dse/search.h"
#include "inference/engine.h"
#include "plan/plan.h"
#include "planner/planner.h"
#include "training/trainer.h"
#include "util/json.h"

namespace optimus {
namespace report {

/** One per-identity kernel row (see plan::KernelAggregate). */
using KernelStat = plan::KernelAggregate;

/** One validation-table row (paper Tables 1-2 style). */
struct ValidationRow
{
    std::string name;        ///< stable row identity
    double reference = 0.0;  ///< published value
    double predicted = 0.0;  ///< model prediction
};

/** One ledger entry. See the file comment for the schema. */
struct RunRecord
{
    int schemaVersion = 0;      ///< kSchemaVersion when built here
    std::string toolVersion;
    std::string gitSha;
    std::string kind;           ///< training|inference|planner|dse|bench
    std::string label;          ///< caller-chosen run name
    std::string fingerprint;    ///< stable hash of `config`
    JsonValue config;           ///< canonical config object
    double wallSeconds = 0.0;   ///< real time spent evaluating
    int threads = 1;            ///< exec-layer worker threads

    /** Top-level breakdown, in insertion order (stable output). */
    std::vector<std::pair<std::string, double>> metrics;
    std::vector<KernelStat> kernels;
    std::map<std::string, double> counters;
    std::vector<ValidationRow> validation;
    /** Non-numeric outcomes (e.g. the winning plan's mapping). */
    std::vector<std::pair<std::string, std::string>> attrs;

    /** Set (or replace) metric @p key. */
    void setMetric(const std::string &key, double value);
    /** True when metric @p key is present. */
    bool hasMetric(const std::string &key) const;
    /** Value of metric @p key (0 when absent). */
    double metric(const std::string &key) const;

    /** Set (or replace) attribute @p key. */
    void setAttr(const std::string &key, const std::string &value);
};

/**
 * Stable 64-bit FNV-1a fingerprint (hex) of a canonical config
 * object: hashes the compact JSON dump, so two configs fingerprint
 * equal iff they serialize identically.
 */
std::string fingerprintJson(const JsonValue &config);

// ---- Serialization ---------------------------------------------------

/** Serialize; the inverse of recordFromJson (lossless round trip). */
JsonValue toJson(const RunRecord &rec);

/**
 * Parse a RunRecord document. Throws ConfigError on malformed input
 * or on a schema_version newer than this build understands.
 */
RunRecord recordFromJson(const JsonValue &j);

/** Write @p rec to @p path as pretty JSON; throws on I/O failure. */
void writeRunRecord(const std::string &path, const RunRecord &rec);

/** Load a RunRecord file; throws ConfigError on failure. */
RunRecord loadRunRecord(const std::string &path);

// ---- Builders --------------------------------------------------------
//
// Each builder stamps the build identity, fingerprints the canonical
// config, runs the evaluator and fills metrics and counters. The
// training and inference builders take kernel rows from
// plan::kernelAggregates and counters from the plan; the planner and
// DSE builders record no kernel rows and copy the counters of a
// private TraceSession. `threads` follows the exec-layer convention
// (0 = OPTIMUS_THREADS env, default 1).

/** Record one training evaluation; its config is the run's config::toJson. */
RunRecord recordTraining(const TransformerConfig &model,
                         const System &sys, const ParallelConfig &par,
                         long long global_batch, TrainingOptions opts,
                         const std::string &label = "training");

/** Record one inference evaluation; its config is the run's config::toJson. */
RunRecord recordInference(const TransformerConfig &model,
                          const System &sys, InferenceOptions opts,
                          const std::string &label = "inference");

/** Record a planner enumeration (metrics describe the ranked plans). */
RunRecord recordPlanner(const TransformerConfig &model,
                        const System &sys, long long global_batch,
                        TrainingPlannerOptions opts,
                        const std::string &label = "planner");

/**
 * Record a DSE search (metrics describe the optimized design);
 * @p objective_config describes the objective, e.g. a run's
 * config::toJson.
 */
RunRecord recordDse(const TechConfig &tech,
                    const DeviceObjective &objective, DseOptions opts,
                    const JsonValue &objective_config,
                    const std::string &label = "dse");

/**
 * Start a bench-shaped record (kind "bench"): identity stamped,
 * fingerprint taken from @p config, metrics/validation left for the
 * bench to fill.
 */
RunRecord beginBenchRecord(const std::string &label, JsonValue config);

} // namespace report
} // namespace optimus

#endif // OPTIMUS_REPORT_RECORD_H
