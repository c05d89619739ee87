/**
 * @file
 * JSON (de)serialization for the library's configuration and report
 * types, plus a name registry for the built-in presets. This is what
 * the CLI (tools/optimus_cli) and any embedding application use to
 * drive the model from config files.
 *
 * Each config type is written and read from one field list, so toJson
 * and its reader round-trip by construction. A reader starts from the
 * type's defaults, or for a device, link, system or model from a
 * preset ({"preset": "a100-80gb"}), and each field the object has
 * overrides that base. A member the list does not name is a LintError
 * (OPT-CFG-025) that reports every unknown member of the object.
 */

#ifndef OPTIMUS_CONFIG_SERIALIZE_H
#define OPTIMUS_CONFIG_SERIALIZE_H

#include <span>
#include <string>
#include <vector>

#include "inference/engine.h"
#include "lint/lint.h"
#include "planner/planner.h"
#include "training/trainer.h"
#include "util/json.h"

namespace optimus {
namespace config {

// ---- Preset registries -----------------------------------------------

/** Known device preset names ("a100-80gb", "h100-sxm", ...). */
std::vector<std::string> devicePresetNames();
/** Lookup a device preset; throws ConfigError on unknown name. */
Device devicePreset(const std::string &name);

/** Known model preset names ("gpt-175b", "llama2-13b", ...). */
std::vector<std::string> modelPresetNames();
/** Lookup a model preset; throws ConfigError on unknown name. */
TransformerConfig modelPreset(const std::string &name);

/** Known system preset names ("dgx-a100", "dgx-h100", ...). */
std::vector<std::string> systemPresetNames();
/** Lookup a system preset with @p num_nodes nodes. */
System systemPreset(const std::string &name, int num_nodes);

// ---- Serialization -----------------------------------------------------

JsonValue toJson(const Device &dev);
JsonValue toJson(const NetworkLink &link);
JsonValue toJson(const System &sys);
JsonValue toJson(const TransformerConfig &cfg);
JsonValue toJson(const ParallelConfig &par);
JsonValue toJson(const TrainingMemory &mem);
JsonValue toJson(const TrainingOptions &opts);
JsonValue toJson(const InferenceOptions &opts);
/** A planner's search: its ZeRO, recompute and microbatch lists, keep. */
JsonValue toJson(const TrainingPlannerOptions &opts);
JsonValue toJson(const TrainingReport &rep);
JsonValue toJson(const InferenceReport &rep);
JsonValue toJson(const lint::Diagnostic &diag);
JsonValue toJson(const lint::LintReport &report);

// ---- Deserialization -----------------------------------------------------

Device deviceFromJson(const JsonValue &j);
NetworkLink linkFromJson(const JsonValue &j);
System systemFromJson(const JsonValue &j);
/** A model without numKvHeads, in it and its preset, has numHeads. */
TransformerConfig modelFromJson(const JsonValue &j);
ParallelConfig parallelFromJson(const JsonValue &j);
TrainingOptions trainingOptionsFromJson(const JsonValue &j);
/** Without kvPrecision, the KV cache takes the run's precision. */
InferenceOptions inferenceOptionsFromJson(const JsonValue &j);
/** The search of a planner; its training options and threads are unset. */
TrainingPlannerOptions plannerOptionsFromJson(const JsonValue &j);

/**
 * Throw a LintError with one OPT-CFG-025 error per member of object
 * @p j that @p known does not name. @p what names a member in the
 * message, e.g. "parallel field".
 */
void rejectUnknownFields(const JsonValue &j,
                         std::span<const char *const> known,
                         const std::string &what);

} // namespace config
} // namespace optimus

#endif // OPTIMUS_CONFIG_SERIALIZE_H
