/**
 * @file
 * Rule-based static validation of (model, system, mapping) triples.
 *
 * The paper's value proposition is predicting *before* running; a
 * mapping that is illegal (heads not divisible by TP, KV cache
 * overflowing HBM, fewer microbatches than pipeline stages) should be
 * rejected by analysis, not discovered as a nonsense number. The lint
 * engine inspects a bound configuration without evaluating it and
 * emits every applicable diagnostic in one pass — unlike the
 * first-throw checkConfig() style, a single run reports the full list
 * of problems. Each rule has a stable identifier (OPT-PAR-001, ...)
 * catalogued in docs/DIAGNOSTICS.md.
 *
 * Lint is the one legality gate: each public entry point enforces one
 * merged report (LintError on any error), and the code below it
 * re-checks nothing (docs/DIAGNOSTICS.md, "Where lint runs").
 */

#ifndef OPTIMUS_LINT_LINT_H
#define OPTIMUS_LINT_LINT_H

#include <string>
#include <vector>

#include "inference/engine.h"
#include "training/trainer.h"
#include "util/error.h"
#include "util/table.h"

namespace optimus {
namespace lint {

/** How bad a diagnostic is. */
enum class Severity {
    Warning,  ///< legal but almost certainly not what you want
    Error,    ///< the configuration cannot run / cannot be trusted
};

/** Human-readable severity name ("warning" / "error"). */
const char *severityName(Severity s);

/** One finding of the static analyzer. */
struct Diagnostic
{
    Severity severity = Severity::Error;
    std::string ruleId;   ///< stable identifier, e.g. "OPT-PAR-001"
    std::string message;  ///< what is wrong, with the offending values
    std::string hint;     ///< how to fix it (may be empty)
};

/** Aggregated result of a lint pass. */
class LintReport
{
  public:
    /** Append a diagnostic. */
    void add(Severity severity, std::string rule_id,
             std::string message, std::string hint = "");
    /** Append an error-severity diagnostic. */
    void error(std::string rule_id, std::string message,
               std::string hint = "");
    /** Append a warning-severity diagnostic. */
    void warning(std::string rule_id, std::string message,
                 std::string hint = "");
    /** Append every diagnostic of @p other not already reported. */
    void merge(const LintReport &other);

    const std::vector<Diagnostic> &diagnostics() const
    {
        return diags_;
    }
    bool empty() const { return diags_.empty(); }
    bool hasErrors() const { return errorCount() > 0; }
    size_t errorCount() const;
    size_t warningCount() const;
    /** True if a diagnostic with @p rule_id is present. */
    bool has(const std::string &rule_id) const;

    /** One-line synopsis, e.g. "2 errors, 1 warning". */
    std::string summary() const;
    /** Every message joined with "; " (error-severity first). */
    std::string joinedMessages() const;

  private:
    std::vector<Diagnostic> diags_;
};

// ---- Rule catalog ------------------------------------------------------

/** Static description of one lint rule. */
struct RuleInfo
{
    const char *id;
    Severity severity;
    const char *summary;
};

/** Every rule the engine can emit, for docs and tests. */
const std::vector<RuleInfo> &ruleCatalog();

// Stable rule identifiers (see docs/DIAGNOSTICS.md for the catalog).
inline constexpr char kRuleTpHeads[] = "OPT-PAR-001";
inline constexpr char kRuleTrainMemory[] = "OPT-MEM-002";
inline constexpr char kRuleFewMicrobatches[] = "OPT-SCHED-003";
inline constexpr char kRuleSuspiciousUnits[] = "OPT-UNIT-004";
inline constexpr char kRulePrecisionSupport[] = "OPT-PREC-005";
inline constexpr char kRuleTpFfn[] = "OPT-PAR-006";
inline constexpr char kRuleDeviceCount[] = "OPT-PAR-007";
inline constexpr char kRuleTpSpansNodes[] = "OPT-PAR-008";
inline constexpr char kRuleLayersPerStage[] = "OPT-SCHED-009";
inline constexpr char kRuleInterleaveSchedule[] = "OPT-SCHED-010";
inline constexpr char kRuleExpertParallel[] = "OPT-PAR-011";
inline constexpr char kRuleBatchVsDp[] = "OPT-PAR-012";
inline constexpr char kRuleMicrobatchDivides[] = "OPT-PAR-013";
inline constexpr char kRuleTpKvHeads[] = "OPT-PAR-014";
inline constexpr char kRuleInferMemory[] = "OPT-MEM-015";
inline constexpr char kRuleSequenceLength[] = "OPT-SEQ-016";
inline constexpr char kRuleKvPrecision[] = "OPT-PREC-017";
inline constexpr char kRuleModelStructure[] = "OPT-CFG-018";
inline constexpr char kRuleSystemStructure[] = "OPT-CFG-019";
inline constexpr char kRuleMappingPositive[] = "OPT-CFG-020";
inline constexpr char kRuleSeqVsContextParallel[] = "OPT-PAR-021";
inline constexpr char kRuleZeroStage[] = "OPT-MEM-022";
inline constexpr char kRuleContextParallelFlash[] = "OPT-PAR-023";
inline constexpr char kRuleOverlapFraction[] = "OPT-CFG-024";
inline constexpr char kRuleUnknownField[] = "OPT-CFG-025";

// ---- Lint passes -------------------------------------------------------

/** Structural invariants of a model description (OPT-CFG-018). */
LintReport lintModel(const TransformerConfig &cfg);

/**
 * Structural invariants of a system description (OPT-CFG-019) plus
 * unit-sanity heuristics (OPT-UNIT-004: a bandwidth or capacity whose
 * magnitude suggests a missing multiplier or a bytes-vs-bits mix-up).
 */
LintReport lintSystem(const System &sys);

/**
 * A training parallelization mapping against a model and system:
 * divisibility, device counts, schedule legality, microbatch math.
 * Assumes @p cfg and @p sys are themselves structurally valid.
 */
LintReport lintMapping(const TransformerConfig &cfg, const System &sys,
                       const ParallelConfig &par,
                       long long global_batch);

/**
 * Training option rules: precision support, sequence length (positive,
 * in the model's window, divisible by CP), CP needs flash attention,
 * ZeRO stage 0-3, overlap fractions in [0, 1]. Assumes @p cfg and
 * @p sys are structurally valid.
 */
LintReport lintTrainingOptions(const TransformerConfig &cfg,
                               const System &sys,
                               const ParallelConfig &par,
                               const TrainingOptions &opts);

/** lowerTraining's gate: model + system, then mapping + options. */
LintReport lintTrainingGate(const TransformerConfig &cfg,
                            const System &sys, const ParallelConfig &par,
                            long long global_batch,
                            const TrainingOptions &opts);

/** Full training lint: lintTrainingGate plus memory fit (OPT-MEM-002). */
LintReport lintTraining(const TransformerConfig &cfg, const System &sys,
                        const ParallelConfig &par,
                        long long global_batch,
                        const TrainingOptions &opts = {});

/**
 * Inference-mapping rules only (no memory-fit check): TP divisibility,
 * device budget, precision support, context length.
 */
LintReport lintInferenceMapping(const TransformerConfig &cfg,
                                const System &sys,
                                const InferenceOptions &opts);

/** lowerInference's gate: model + system, then lintInferenceMapping. */
LintReport lintInferenceGate(const TransformerConfig &cfg,
                             const System &sys,
                             const InferenceOptions &opts);

/** Full inference lint: lintInferenceGate plus memory fit (OPT-MEM-015). */
LintReport lintInference(const TransformerConfig &cfg, const System &sys,
                         const InferenceOptions &opts);

// ---- Search-loop helpers ----------------------------------------------

/**
 * Fast legality pre-filter for mapping enumeration (the planner / DSE
 * inner loops): true iff lintMapping() emits no error. Does not
 * estimate memory or evaluate anything.
 */
bool isLegalMapping(const TransformerConfig &cfg, const System &sys,
                    const ParallelConfig &par, long long global_batch);

/** True iff @p dev passes structural validation (DSE pre-filter). */
bool isLegalDevice(const Device &dev);

// ---- Reporting ---------------------------------------------------------

/** Throw LintError when @p report contains any error diagnostic. */
void enforce(const LintReport &report);

/** Render a report as a printable table (severity/rule/message/hint). */
Table diagnosticsTable(const LintReport &report);

} // namespace lint

/**
 * A ConfigError that carries the complete lint report instead of just
 * the first failing check. Catch sites expecting ConfigError keep
 * working; new code can recover every diagnostic via report().
 */
class LintError : public ConfigError
{
  public:
    explicit LintError(lint::LintReport report)
        : ConfigError(report.joinedMessages()), report_(std::move(report))
    {}

    const lint::LintReport &report() const { return report_; }

  private:
    lint::LintReport report_;
};

} // namespace optimus

#endif // OPTIMUS_LINT_LINT_H
