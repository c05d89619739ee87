#include "lint/lint.h"

#include <algorithm>
#include <initializer_list>
#include <sstream>
#include <utility>

#include "memory/footprint.h"
#include "memory/kv_cache.h"
#include "util/units.h"

namespace optimus {
namespace lint {

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    throw ModelError("unknown lint severity");
}

void
LintReport::add(Severity severity, std::string rule_id,
                std::string message, std::string hint)
{
    diags_.push_back({severity, std::move(rule_id), std::move(message),
                      std::move(hint)});
}

void
LintReport::error(std::string rule_id, std::string message,
                  std::string hint)
{
    add(Severity::Error, std::move(rule_id), std::move(message),
        std::move(hint));
}

void
LintReport::warning(std::string rule_id, std::string message,
                    std::string hint)
{
    add(Severity::Warning, std::move(rule_id), std::move(message),
        std::move(hint));
}

void
LintReport::merge(const LintReport &other)
{
    // Two passes that raise the same finding (one device's precision
    // for two models, one option at several ZeRO stages) report it once.
    for (const Diagnostic &d : other.diags_)
        if (std::none_of(diags_.begin(), diags_.end(),
                         [&](const Diagnostic &e) {
                             return e.ruleId == d.ruleId &&
                                    e.message == d.message;
                         }))
            diags_.push_back(d);
}

size_t
LintReport::errorCount() const
{
    return static_cast<size_t>(
        std::count_if(diags_.begin(), diags_.end(),
                      [](const Diagnostic &d) {
                          return d.severity == Severity::Error;
                      }));
}

size_t
LintReport::warningCount() const
{
    return diags_.size() - errorCount();
}

bool
LintReport::has(const std::string &rule_id) const
{
    return std::any_of(diags_.begin(), diags_.end(),
                       [&](const Diagnostic &d) {
                           return d.ruleId == rule_id;
                       });
}

std::string
LintReport::summary() const
{
    const size_t e = errorCount();
    const size_t w = warningCount();
    std::string out = std::to_string(e) +
                      (e == 1 ? " error, " : " errors, ") +
                      std::to_string(w) +
                      (w == 1 ? " warning" : " warnings");
    return out;
}

std::string
LintReport::joinedMessages() const
{
    // Error-severity findings are the reason a LintError is thrown;
    // list them first (warnings only when nothing erred).
    std::string out;
    auto append = [&](const Diagnostic &d) {
        if (!out.empty())
            out += "; ";
        out += "[" + d.ruleId + "] " + d.message;
    };
    for (const Diagnostic &d : diags_)
        if (d.severity == Severity::Error)
            append(d);
    if (out.empty())
        for (const Diagnostic &d : diags_)
            append(d);
    return out;
}

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> catalog = {
        {kRuleTpHeads, Severity::Error,
         "TP degree must divide the attention head count"},
        {kRuleTrainMemory, Severity::Error,
         "static training footprint exceeds per-device memory"},
        {kRuleFewMicrobatches, Severity::Warning,
         "fewer microbatches than pipeline stages (bubble-bound)"},
        {kRuleSuspiciousUnits, Severity::Warning,
         "magnitude suggests a unit mix-up (GB vs GiB vs Gb)"},
        {kRulePrecisionSupport, Severity::Error,
         "compute precision unsupported by the device matrix engine"},
        {kRuleTpFfn, Severity::Error,
         "TP degree must divide the FFN hidden width"},
        {kRuleDeviceCount, Severity::Error,
         "mapping device count does not match the system"},
        {kRuleTpSpansNodes, Severity::Error,
         "TP group spans nodes (Megatron convention: stay in-node)"},
        {kRuleLayersPerStage, Severity::Error,
         "layers must divide evenly over pipeline stages"},
        {kRuleInterleaveSchedule, Severity::Error,
         "interleaved stages require the interleaved schedule"},
        {kRuleExpertParallel, Severity::Error,
         "expert-parallel constraints violated"},
        {kRuleBatchVsDp, Severity::Error,
         "global batch must divide by the DP degree"},
        {kRuleMicrobatchDivides, Severity::Error,
         "per-pipeline batch must divide by the microbatch size"},
        {kRuleTpKvHeads, Severity::Warning,
         "TP degree does not divide the KV head count (GQA waste)"},
        {kRuleInferMemory, Severity::Error,
         "weights + KV cache exceed the devices' memory budget"},
        {kRuleSequenceLength, Severity::Warning,
         "requested context exceeds the model's trained maximum"},
        {kRuleKvPrecision, Severity::Warning,
         "KV-cache precision has no native device support"},
        {kRuleModelStructure, Severity::Error,
         "model description violates a structural invariant"},
        {kRuleSystemStructure, Severity::Error,
         "system description violates a structural invariant"},
        {kRuleMappingPositive, Severity::Error,
         "parallelization degrees and batch sizes must be positive"},
        {kRuleSeqVsContextParallel, Severity::Error,
         "sequence length must divide by the context-parallel degree"},
        {kRuleZeroStage, Severity::Error,
         "ZeRO stage must be 0, 1, 2 or 3"},
        {kRuleContextParallelFlash, Severity::Error,
         "context parallelism (ring attention) requires flash attention"},
        {kRuleOverlapFraction, Severity::Error,
         "communication overlap fraction must lie in [0, 1]"},
        {kRuleUnknownField, Severity::Error, "unknown config field"},
    };
    return catalog;
}

namespace {

std::string
str(long long v)
{
    return std::to_string(v);
}

/** Emit OPT-CFG-020 for every non-positive field; true if any fired. */
bool
requirePositive(
    std::initializer_list<std::pair<const char *, long long>> fields,
    LintReport &report)
{
    bool fired = false;
    for (const auto &[name, value] : fields) {
        if (value <= 0) {
            report.error(kRuleMappingPositive,
                         std::string(name) + " must be positive, got " +
                             str(value));
            fired = true;
        }
    }
    return fired;
}

/** OPT-PAR-001/006/014; @p replicated names what uneven KV heads copy. */
void
tensorParallelRules(const TransformerConfig &cfg, long long tp,
                    const char *replicated, LintReport &report)
{
    if (cfg.numHeads % tp != 0)
        report.error(kRuleTpHeads,
                     str(cfg.numHeads) +
                         " attention heads do not divide by TP degree " +
                         str(tp),
                     "pick a TP degree that divides the head count");
    if (cfg.ffnHidden % tp != 0)
        report.error(kRuleTpFfn,
                     "FFN width " + str(cfg.ffnHidden) +
                         " does not divide by TP degree " + str(tp),
                     "pick a TP degree that divides ffnHidden");
    if (tp > 1 && cfg.numKvHeads % tp != 0)
        report.warning(kRuleTpKvHeads,
                       str(cfg.numKvHeads) +
                           " KV heads do not divide by TP degree " +
                           str(tp) + "; " + replicated +
                           " will be replicated",
                       "for GQA models keep TP <= numKvHeads or a "
                       "divisor of it");
}

/** OPT-PREC-005: @p dev's matrix engine must run @p precision. */
void
precisionRule(const Device &dev, Precision precision, LintReport &report)
{
    if (!dev.supportsMatrix(precision))
        report.error(kRulePrecisionSupport,
                     dev.name + " has no matrix-engine path for " +
                         precisionName(precision),
                     "pick a supported precision (see the device's "
                     "matrixThroughput table)");
}

} // namespace

LintReport
lintModel(const TransformerConfig &cfg)
{
    // Mirrors TransformerConfig::validate(), but aggregates every
    // violation under OPT-CFG-018 instead of throwing on the first.
    LintReport report;
    const std::string name = cfg.name.empty() ? "<model>" : cfg.name;
    if (cfg.name.empty())
        report.error(kRuleModelStructure, "model needs a name");

    const struct { const char *field; long long value; } fields[] = {
        {"numLayers", cfg.numLayers},     {"hiddenSize", cfg.hiddenSize},
        {"numHeads", cfg.numHeads},       {"numKvHeads", cfg.numKvHeads},
        {"ffnHidden", cfg.ffnHidden},     {"vocabSize", cfg.vocabSize},
        {"maxSeqLength", cfg.maxSeqLength},
        {"numExperts", cfg.numExperts},   {"topK", cfg.topK},
    };
    for (const auto &f : fields) {
        if (f.value <= 0)
            report.error(kRuleModelStructure,
                         name + ": " + f.field +
                             " must be positive, got " + str(f.value));
    }

    if (cfg.numHeads > 0 && cfg.hiddenSize % cfg.numHeads != 0)
        report.error(kRuleModelStructure,
                     name + ": hiddenSize (" + str(cfg.hiddenSize) +
                         ") must divide evenly into " +
                         str(cfg.numHeads) + " heads");
    if (cfg.numKvHeads > cfg.numHeads)
        report.error(kRuleModelStructure,
                     name + ": numKvHeads (" + str(cfg.numKvHeads) +
                         ") cannot exceed numHeads (" +
                         str(cfg.numHeads) + ")");
    else if (cfg.numKvHeads > 0 && cfg.numHeads % cfg.numKvHeads != 0)
        report.error(kRuleModelStructure,
                     name + ": numHeads must be a multiple of "
                            "numKvHeads");
    if (cfg.topK > cfg.numExperts)
        report.error(kRuleModelStructure,
                     name + ": topK (" + str(cfg.topK) +
                         ") cannot exceed numExperts (" +
                         str(cfg.numExperts) + ")");
    if (cfg.numExperts <= 1 && cfg.topK != 1)
        report.error(kRuleModelStructure,
                     name + ": dense models route every token to the "
                            "single FFN (topK must be 1)");
    if (cfg.slidingWindow < 0)
        report.error(kRuleModelStructure,
                     name + ": slidingWindow must be non-negative");
    return report;
}

LintReport
lintSystem(const System &sys)
{
    LintReport report;
    if (sys.devicesPerNode <= 0)
        report.error(kRuleSystemStructure,
                     "devicesPerNode must be positive, got " +
                         str(sys.devicesPerNode));
    if (sys.numNodes <= 0)
        report.error(kRuleSystemStructure,
                     "numNodes must be positive, got " +
                         str(sys.numNodes));

    // Deep component checks reuse the components' own validators;
    // a failure in one component does not mask the others.
    bool device_ok = true;
    try {
        sys.device.validate();
    } catch (const ConfigError &e) {
        device_ok = false;
        report.error(kRuleSystemStructure, e.what());
    }
    for (const NetworkLink *link : {&sys.intraLink, &sys.interLink}) {
        try {
            link->validate();
        } catch (const ConfigError &e) {
            report.error(kRuleSystemStructure, e.what());
        }
    }

    // Unit-sanity heuristics (OPT-UNIT-004). The library stores bytes
    // and bytes/s; the classic mistakes are a raw vendor number with
    // no multiplier ("bandwidth": 400 meaning GB/s) and bit-rates
    // quoted as byte-rates. Magnitudes far outside the plausible
    // hardware range almost always mean one of those.
    if (device_ok) {
        const MemoryLevel &dram = sys.device.dram();
        if (dram.capacity < 1.0 * GiB)
            report.warning(
                kRuleSuspiciousUnits,
                sys.device.name + ": DRAM capacity is only " +
                    formatBytes(dram.capacity),
                "capacities are bytes; write `80 * GiB`, not `80`");
        else if (dram.capacity > 100.0 * TB)
            report.warning(
                kRuleSuspiciousUnits,
                sys.device.name + ": DRAM capacity of " +
                    formatBytes(dram.capacity) +
                    " exceeds any shipping accelerator",
                "check for a doubled multiplier (GiB vs GB)");
        if (dram.bandwidth < 1.0 * GBps)
            report.warning(
                kRuleSuspiciousUnits,
                sys.device.name + ": DRAM bandwidth is only " +
                    formatBandwidth(dram.bandwidth),
                "bandwidths are bytes/s; write `2 * TBps` or use the "
                "Gbps helper for bit-rates");
        else if (dram.bandwidth > 1000.0 * TBps)
            report.warning(kRuleSuspiciousUnits,
                           sys.device.name + ": DRAM bandwidth of " +
                               formatBandwidth(dram.bandwidth) +
                               " is beyond any HBM roadmap",
                           "check for a bits-vs-bytes mix-up");
    }
    for (const NetworkLink *link : {&sys.intraLink, &sys.interLink}) {
        if (link->bandwidth <= 0.0)
            continue;  // structural error already reported
        if (link->bandwidth < 0.1 * GBps)
            report.warning(
                kRuleSuspiciousUnits,
                link->name + ": link bandwidth is only " +
                    formatBandwidth(link->bandwidth),
                "vendors quote links in Gb/s; write `400 * Gbps` "
                "(= 50 GB/s), not `400`");
        else if (link->bandwidth > 50.0 * TBps)
            report.warning(
                kRuleSuspiciousUnits,
                link->name + ": link bandwidth of " +
                    formatBandwidth(link->bandwidth) +
                    " exceeds any interconnect",
                "check for a bits-vs-bytes mix-up (Gb/s vs GB/s)");
    }
    return report;
}

LintReport
lintMapping(const TransformerConfig &cfg, const System &sys,
            const ParallelConfig &par, long long global_batch)
{
    LintReport report;
    if (requirePositive({{"dataParallel", par.dataParallel},
                         {"tensorParallel", par.tensorParallel},
                         {"pipelineParallel", par.pipelineParallel},
                         {"microbatchSize", par.microbatchSize},
                         {"interleavedStages", par.interleavedStages},
                         {"expertParallel", par.expertParallel},
                         {"contextParallel", par.contextParallel},
                         {"global batch", global_batch}},
                        report))
        return report;  // divisibility math below needs positives

    if (par.totalDevices() != sys.totalDevices())
        report.error(kRuleDeviceCount,
                     "mapping needs " + str(par.totalDevices()) +
                         " devices (DP*CP*TP*PP), system has " +
                         str(sys.totalDevices()),
                     "adjust the degrees or the node count so "
                     "DP*CP*TP*PP matches the system");
    if (par.tensorParallel > sys.devicesPerNode)
        report.error(kRuleTpSpansNodes,
                     "TP degree " + str(par.tensorParallel) +
                         " exceeds the " + str(sys.devicesPerNode) +
                         " devices of a node",
                     "keep TP within a node (Megatron convention); "
                     "use PP or DP across nodes");
    tensorParallelRules(cfg, par.tensorParallel, "KV projections", report);

    const long long stages =
        par.pipelineParallel * par.interleavedStages;
    if (cfg.numLayers % stages != 0)
        report.error(kRuleLayersPerStage,
                     str(cfg.numLayers) +
                         " layers do not divide by PP*interleave (" +
                         str(par.pipelineParallel) + "*" +
                         str(par.interleavedStages) + " = " +
                         str(stages) + ")",
                     "choose PP and interleave so every stage gets "
                     "the same number of layers");
    if (par.interleavedStages > 1 &&
        par.schedule != PipelineSchedule::Interleaved1F1B)
        report.error(kRuleInterleaveSchedule,
                     "interleavedStages = " +
                         str(par.interleavedStages) +
                         " requires the interleaved schedule, got " +
                         scheduleName(par.schedule),
                     "set schedule = \"interleaved\"");

    if (par.expertParallel > 1) {
        if (!cfg.isMoe())
            report.error(kRuleExpertParallel,
                         "expert parallelism (EP = " +
                             str(par.expertParallel) +
                             ") requires a MoE model; " + cfg.name +
                             " is dense",
                         "set expertParallel = 1 for dense models");
        else if (cfg.numExperts % par.expertParallel != 0)
            report.error(kRuleExpertParallel,
                         str(cfg.numExperts) +
                             " experts do not divide by EP degree " +
                             str(par.expertParallel));
        if (par.dataParallel % par.expertParallel != 0)
            report.error(kRuleExpertParallel,
                         "EP shards the data-parallel dimension; DP (" +
                             str(par.dataParallel) +
                             ") must divide by EP (" +
                             str(par.expertParallel) + ")");
    }

    if (global_batch % par.dataParallel != 0) {
        report.error(kRuleBatchVsDp,
                     "global batch " + str(global_batch) +
                         " does not divide by DP degree " +
                         str(par.dataParallel),
                     "pick a global batch that is a multiple of DP");
    } else {
        const long long per_pipeline =
            global_batch / par.dataParallel;
        if (per_pipeline % par.microbatchSize != 0) {
            report.error(kRuleMicrobatchDivides,
                         "per-pipeline batch " + str(per_pipeline) +
                             " does not divide by microbatch size " +
                             str(par.microbatchSize));
        } else if (par.pipelineParallel > 1) {
            const long long m = per_pipeline / par.microbatchSize;
            if (m < par.pipelineParallel)
                report.warning(
                    kRuleFewMicrobatches,
                    str(m) + " microbatches feed " +
                        str(par.pipelineParallel) +
                        " pipeline stages; the bubble dominates",
                    "raise the global batch or shrink the microbatch "
                    "size so microbatches >= PP");
        }
    }
    return report;
}

LintReport
lintTrainingOptions(const TransformerConfig &cfg, const System &sys,
                    const ParallelConfig &par,
                    const TrainingOptions &opts)
{
    LintReport report;
    precisionRule(sys.device, opts.precision, report);
    const bool seq_ok =
        !requirePositive({{"seqLength", opts.seqLength}}, report);
    if (seq_ok && opts.seqLength > cfg.maxSeqLength)
        report.warning(kRuleSequenceLength,
                       "training sequence length " +
                           str(opts.seqLength) +
                           " exceeds the model's maxSeqLength " +
                           str(cfg.maxSeqLength),
                       "extend maxSeqLength (position embeddings) or "
                       "shorten the sequences");
    if (seq_ok && par.contextParallel > 0 &&
        opts.seqLength % par.contextParallel != 0)
        report.error(kRuleSeqVsContextParallel,
                     "sequence length " + str(opts.seqLength) +
                         " does not divide by CP degree " +
                         str(par.contextParallel));
    if (par.contextParallel > 1 && !opts.flashAttention)
        report.error(kRuleContextParallelFlash,
                     "CP degree " + str(par.contextParallel) +
                         " needs flash attention (ring attention)",
                     "enable flashAttention or set contextParallel = 1");
    if (opts.memory.zeroStage < 0 || opts.memory.zeroStage > 3)
        report.error(kRuleZeroStage,
                     "ZeRO stage must be 0, 1, 2 or 3, got " +
                         str(opts.memory.zeroStage));
    for (const auto &[name, fraction] :
         {std::pair{"tpOverlapFraction", opts.tpOverlapFraction},
          std::pair{"dpOverlapFraction", opts.dpOverlapFraction}}) {
        if (!(fraction >= 0.0 && fraction <= 1.0)) {  // NaN too
            std::ostringstream msg;
            msg << name << " must lie in [0, 1], got " << fraction;
            report.error(kRuleOverlapFraction, msg.str());
        }
    }
    return report;
}

LintReport
lintTrainingGate(const TransformerConfig &cfg, const System &sys,
                 const ParallelConfig &par, long long global_batch,
                 const TrainingOptions &opts)
{
    LintReport report = lintModel(cfg);
    report.merge(lintSystem(sys));
    if (!report.hasErrors()) {
        report.merge(lintMapping(cfg, sys, par, global_batch));
        report.merge(lintTrainingOptions(cfg, sys, par, opts));
    }
    return report;
}

LintReport
lintTraining(const TransformerConfig &cfg, const System &sys,
             const ParallelConfig &par, long long global_batch,
             const TrainingOptions &opts)
{
    LintReport report =
        lintTrainingGate(cfg, sys, par, global_batch, opts);

    // An illegal shard has no well-defined per-device memory.
    if (!report.hasErrors()) {
        const TrainingMemory mem =
            trainingMemoryPerDevice(cfg, par, global_batch, opts);
        const double capacity = sys.device.dram().capacity;
        if (mem.total() > capacity)
            report.error(
                kRuleTrainMemory,
                "static footprint " + formatBytes(mem.total()) +
                    " (weights " + formatBytes(mem.weights) +
                    ", grads " + formatBytes(mem.gradients) +
                    ", optimizer " + formatBytes(mem.optimizer) +
                    ", activations " + formatBytes(mem.activations) +
                    ") exceeds " + formatBytes(capacity) + " of " +
                    sys.device.name,
                "raise TP/PP, enable recomputation or sequence "
                "parallelism, or use ZeRO sharding");
    }
    return report;
}

LintReport
lintInferenceMapping(const TransformerConfig &cfg, const System &sys,
                     const InferenceOptions &opts)
{
    LintReport report;
    if (requirePositive({{"tensorParallel", opts.tensorParallel},
                         {"pipelineParallel", opts.pipelineParallel},
                         {"batch", opts.batch},
                         {"promptLength", opts.promptLength},
                         {"generateLength", opts.generateLength}},
                        report))
        return report;

    const long long devices =
        opts.tensorParallel * opts.pipelineParallel;
    if (devices > sys.totalDevices())
        report.error(kRuleDeviceCount,
                     "inference mapping needs " + str(devices) +
                         " devices (TP*PP), system has " +
                         str(sys.totalDevices()));
    tensorParallelRules(cfg, opts.tensorParallel, "the KV cache", report);
    if (cfg.numLayers % opts.pipelineParallel != 0)
        report.error(kRuleLayersPerStage,
                     str(cfg.numLayers) +
                         " layers do not divide by PP degree " +
                         str(opts.pipelineParallel));

    precisionRule(sys.device, opts.precision, report);
    if (opts.kvPrecision != opts.precision &&
        !sys.device.supportsMatrix(opts.kvPrecision))
        report.warning(kRuleKvPrecision,
                       sys.device.name + " has no native " +
                           precisionName(opts.kvPrecision) +
                           " path; the KV cache will be dequantized "
                           "on every read",
                       "expect the bandwidth saving but no compute "
                       "speedup");
    const long long context = opts.promptLength + opts.generateLength;
    if (context > cfg.maxSeqLength)
        report.warning(kRuleSequenceLength,
                       "prompt + generation = " + str(context) +
                           " tokens exceed the model's maxSeqLength " +
                           str(cfg.maxSeqLength),
                       "long-context quality degrades beyond the "
                       "trained window");
    return report;
}

LintReport
lintInferenceGate(const TransformerConfig &cfg, const System &sys,
                  const InferenceOptions &opts)
{
    LintReport report = lintModel(cfg);
    report.merge(lintSystem(sys));
    if (!report.hasErrors())
        report.merge(lintInferenceMapping(cfg, sys, opts));
    return report;
}

LintReport
lintInference(const TransformerConfig &cfg, const System &sys,
              const InferenceOptions &opts)
{
    LintReport report = lintInferenceGate(cfg, sys, opts);
    if (!report.hasErrors()) {
        // Mirrors the engine's fitsDeviceMemory accounting.
        const long long context =
            opts.promptLength + opts.generateLength;
        const double weights = modelWeightBytes(cfg, opts.precision);
        const double kv = kvCacheBytes(cfg, opts.batch, context,
                                       opts.kvPrecision);
        const double per_device =
            (weights + kv) /
            double(opts.tensorParallel * opts.pipelineParallel);
        const double capacity = sys.device.dram().capacity;
        if (per_device > capacity)
            report.error(
                kRuleInferMemory,
                "weights " + formatBytes(weights) + " + KV cache " +
                    formatBytes(kv) + " need " +
                    formatBytes(per_device) + " per device, " +
                    sys.device.name + " has " + formatBytes(capacity),
                "raise TP/PP, shrink the batch or context, or "
                "quantize the KV cache");
    }
    return report;
}

bool
isLegalMapping(const TransformerConfig &cfg, const System &sys,
               const ParallelConfig &par, long long global_batch)
{
    return !lintMapping(cfg, sys, par, global_batch).hasErrors();
}

bool
isLegalDevice(const Device &dev)
{
    try {
        dev.validate();
        return true;
    } catch (const ConfigError &) {
        return false;
    }
}

void
enforce(const LintReport &report)
{
    if (report.hasErrors())
        throw LintError(report);
}

Table
diagnosticsTable(const LintReport &report)
{
    Table out({"Severity", "Rule", "Message", "Hint"});
    for (const Diagnostic &d : report.diagnostics()) {
        out.beginRow()
            .cell(severityName(d.severity))
            .cell(d.ruleId)
            .cell(d.message)
            .cell(d.hint.empty() ? "-" : d.hint);
        out.endRow();
    }
    return out;
}

} // namespace lint
} // namespace optimus
