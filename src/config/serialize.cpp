#include "config/serialize.h"

#include <functional>
#include <map>

#include "hw/presets.h"
#include "util/error.h"
#include "workload/presets.h"

namespace optimus {
namespace config {

namespace {

const std::map<std::string, std::function<Device()>> &
deviceRegistry()
{
    static const std::map<std::string, std::function<Device()>> reg = {
        {"a100-80gb", presets::a100_80gb},
        {"h100-sxm", presets::h100_sxm},
        {"h200-sxm", presets::h200_sxm},
        {"b100", presets::b100},
        {"b200", presets::b200},
        {"tpu-v4", presets::tpuV4},
        {"tpu-v5p", presets::tpuV5p},
    };
    return reg;
}

const std::map<std::string, std::function<TransformerConfig()>> &
modelRegistry()
{
    static const std::map<std::string,
                          std::function<TransformerConfig()>>
        reg = {
            {"gpt-7b", models::gpt7b},
            {"gpt-22b", models::gpt22b},
            {"gpt-175b", models::gpt175b},
            {"gpt-310b", models::gpt310b},
            {"gpt-530b", models::gpt530b},
            {"gpt-1008b", models::gpt1008b},
            {"llama2-7b", models::llama2_7b},
            {"llama2-13b", models::llama2_13b},
            {"llama2-70b", models::llama2_70b},
            {"mixtral-8x7b", models::mixtral8x7b},
            {"llama3-8b", models::llama3_8b},
            {"llama3-70b", models::llama3_70b},
            {"llama3-405b", models::llama3_405b},
        };
    return reg;
}

const std::map<std::string, std::function<System(int)>> &
systemRegistry()
{
    static const std::map<std::string, std::function<System(int)>>
        reg = {
            {"dgx-a100", presets::dgxA100},
            {"dgx-h100", presets::dgxH100},
            {"dgx-h100-nvs", presets::dgxH100Nvs},
            {"dgx-h200-nvs", presets::dgxH200Nvs},
            {"dgx-b200", presets::dgxB200},
            {"dgx-b200-nvs", presets::dgxB200Nvs},
        {"tpu-v4-pod", presets::tpuV4Pod},
        {"tpu-v5p-pod", presets::tpuV5pPod},
        };
    return reg;
}

PipelineSchedule
scheduleFromName(const std::string &name)
{
    for (PipelineSchedule s :
         {PipelineSchedule::GPipe, PipelineSchedule::OneFOneB,
          PipelineSchedule::Interleaved1F1B})
        if (name == scheduleName(s))
            return s;
    throw ConfigError("unknown pipeline schedule: " + name);
}

} // namespace

std::vector<std::string>
devicePresetNames()
{
    std::vector<std::string> out;
    for (const auto &[name, fn] : deviceRegistry())
        out.push_back(name);
    return out;
}

Device
devicePreset(const std::string &name)
{
    auto it = deviceRegistry().find(name);
    checkConfig(it != deviceRegistry().end(),
                "unknown device preset: " + name);
    return it->second();
}

std::vector<std::string>
modelPresetNames()
{
    std::vector<std::string> out;
    for (const auto &[name, fn] : modelRegistry())
        out.push_back(name);
    return out;
}

TransformerConfig
modelPreset(const std::string &name)
{
    auto it = modelRegistry().find(name);
    checkConfig(it != modelRegistry().end(),
                "unknown model preset: " + name);
    return it->second();
}

std::vector<std::string>
systemPresetNames()
{
    std::vector<std::string> out;
    for (const auto &[name, fn] : systemRegistry())
        out.push_back(name);
    return out;
}

System
systemPreset(const std::string &name, int num_nodes)
{
    auto it = systemRegistry().find(name);
    checkConfig(it != systemRegistry().end(),
                "unknown system preset: " + name);
    return it->second(num_nodes);
}

// ---- Serialization -----------------------------------------------------

JsonValue
toJson(const NetworkLink &link)
{
    JsonValue j = JsonValue::object();
    j.set("name", JsonValue::string(link.name));
    j.set("bandwidth", JsonValue::number(link.bandwidth));
    j.set("latency", JsonValue::number(link.latency));
    j.set("halfUtilVolume", JsonValue::number(link.halfUtilVolume));
    j.set("maxUtilization", JsonValue::number(link.maxUtilization));
    j.set("collectiveOverhead",
          JsonValue::number(link.collectiveOverhead));
    return j;
}

JsonValue
toJson(const Device &dev)
{
    JsonValue j = JsonValue::object();
    j.set("name", JsonValue::string(dev.name));

    JsonValue matrix = JsonValue::object();
    for (const auto &[p, f] : dev.matrixThroughput)
        matrix.set(precisionName(p), JsonValue::number(f));
    j.set("matrixThroughput", std::move(matrix));

    JsonValue vec = JsonValue::object();
    for (const auto &[p, f] : dev.vectorThroughput)
        vec.set(precisionName(p), JsonValue::number(f));
    j.set("vectorThroughput", std::move(vec));

    JsonValue mem = JsonValue::array();
    for (const MemoryLevel &m : dev.mem) {
        JsonValue level = JsonValue::object();
        level.set("name", JsonValue::string(m.name));
        level.set("capacity", JsonValue::number(m.capacity));
        level.set("bandwidth", JsonValue::number(m.bandwidth));
        level.set("utilization", JsonValue::number(m.utilization));
        mem.push(std::move(level));
    }
    j.set("mem", std::move(mem));

    j.set("matrixMaxEfficiency",
          JsonValue::number(dev.matrixMaxEfficiency));
    j.set("gemmKHalf", JsonValue::number(dev.gemmKHalf));
    j.set("gemvDramUtilization",
          JsonValue::number(dev.gemvDramUtilization));
    j.set("kernelLaunchOverhead",
          JsonValue::number(dev.kernelLaunchOverhead));
    return j;
}

JsonValue
toJson(const System &sys)
{
    JsonValue j = JsonValue::object();
    j.set("device", toJson(sys.device));
    j.set("devicesPerNode",
          JsonValue::number(double(sys.devicesPerNode)));
    j.set("numNodes", JsonValue::number(double(sys.numNodes)));
    j.set("intraLink", toJson(sys.intraLink));
    j.set("interLink", toJson(sys.interLink));
    return j;
}

JsonValue
toJson(const TransformerConfig &cfg)
{
    JsonValue j = JsonValue::object();
    j.set("name", JsonValue::string(cfg.name));
    j.set("numLayers", JsonValue::number(double(cfg.numLayers)));
    j.set("hiddenSize", JsonValue::number(double(cfg.hiddenSize)));
    j.set("numHeads", JsonValue::number(double(cfg.numHeads)));
    j.set("numKvHeads", JsonValue::number(double(cfg.numKvHeads)));
    j.set("ffnHidden", JsonValue::number(double(cfg.ffnHidden)));
    j.set("vocabSize", JsonValue::number(double(cfg.vocabSize)));
    j.set("maxSeqLength",
          JsonValue::number(double(cfg.maxSeqLength)));
    j.set("mlp", JsonValue::string(cfg.mlp == MlpKind::SwiGlu
                                       ? "swiglu"
                                       : "gelu"));
    j.set("numExperts", JsonValue::number(double(cfg.numExperts)));
    j.set("topK", JsonValue::number(double(cfg.topK)));
    j.set("slidingWindow",
          JsonValue::number(double(cfg.slidingWindow)));
    return j;
}

JsonValue
toJson(const ParallelConfig &par)
{
    JsonValue j = JsonValue::object();
    j.set("dataParallel", JsonValue::number(double(par.dataParallel)));
    j.set("tensorParallel",
          JsonValue::number(double(par.tensorParallel)));
    j.set("pipelineParallel",
          JsonValue::number(double(par.pipelineParallel)));
    j.set("sequenceParallel",
          JsonValue::boolean(par.sequenceParallel));
    j.set("schedule", JsonValue::string(scheduleName(par.schedule)));
    j.set("microbatchSize",
          JsonValue::number(double(par.microbatchSize)));
    j.set("interleavedStages",
          JsonValue::number(double(par.interleavedStages)));
    j.set("expertParallel",
          JsonValue::number(double(par.expertParallel)));
    j.set("contextParallel",
          JsonValue::number(double(par.contextParallel)));
    return j;
}

JsonValue
toJson(const TrainingMemory &mem)
{
    JsonValue j = JsonValue::object();
    j.set("weights", JsonValue::number(mem.weights));
    j.set("gradients", JsonValue::number(mem.gradients));
    j.set("optimizer", JsonValue::number(mem.optimizer));
    j.set("activations", JsonValue::number(mem.activations));
    j.set("total", JsonValue::number(mem.total()));
    return j;
}

JsonValue
toJson(const TrainingOptions &opts)
{
    // Field names mirror trainingOptionsFromJson, so a serialized
    // options object (e.g. inside a RunRecord's canonical config)
    // deserializes back to the same evaluation. The trace pointer is
    // runtime state, not configuration.
    JsonValue j = JsonValue::object();
    j.set("precision",
          JsonValue::string(precisionName(opts.precision)));
    j.set("recompute", JsonValue::string(recomputeName(opts.recompute)));
    j.set("seqLength", JsonValue::number(double(opts.seqLength)));
    j.set("collectiveAlgorithm", JsonValue::string(collectiveAlgorithmName(
                                     opts.collectiveAlgorithm)));
    j.set("dpOverlapFraction",
          JsonValue::number(opts.dpOverlapFraction));
    j.set("tpOverlapFraction",
          JsonValue::number(opts.tpOverlapFraction));
    j.set("flashAttention", JsonValue::boolean(opts.flashAttention));
    j.set("zeroStage", JsonValue::number(double(opts.memory.zeroStage)));
    return j;
}

JsonValue
toJson(const InferenceOptions &opts)
{
    JsonValue j = JsonValue::object();
    j.set("precision",
          JsonValue::string(precisionName(opts.precision)));
    j.set("tensorParallel",
          JsonValue::number(double(opts.tensorParallel)));
    j.set("pipelineParallel",
          JsonValue::number(double(opts.pipelineParallel)));
    j.set("batch", JsonValue::number(double(opts.batch)));
    j.set("promptLength",
          JsonValue::number(double(opts.promptLength)));
    j.set("generateLength",
          JsonValue::number(double(opts.generateLength)));
    j.set("collectiveAlgorithm", JsonValue::string(collectiveAlgorithmName(
                                     opts.collectiveAlgorithm)));
    j.set("flashAttention", JsonValue::boolean(opts.flashAttention));
    j.set("kvPrecision",
          JsonValue::string(precisionName(opts.kvPrecision)));
    return j;
}

JsonValue
toJson(const TrainingReport &rep)
{
    JsonValue j = JsonValue::object();
    j.set("timePerBatch", JsonValue::number(rep.timePerBatch));
    JsonValue t = JsonValue::object();
    t.set("forward", JsonValue::number(rep.time.forward));
    t.set("backward", JsonValue::number(rep.time.backward));
    t.set("recompute", JsonValue::number(rep.time.recompute));
    t.set("embedding", JsonValue::number(rep.time.embedding));
    t.set("tpComm", JsonValue::number(rep.time.tpComm));
    t.set("cpComm", JsonValue::number(rep.time.cpComm));
    t.set("epComm", JsonValue::number(rep.time.epComm));
    t.set("ppComm", JsonValue::number(rep.time.ppComm));
    t.set("dpComm", JsonValue::number(rep.time.dpComm));
    t.set("bubble", JsonValue::number(rep.time.bubble));
    t.set("optimizer", JsonValue::number(rep.time.optimizer));
    j.set("time", std::move(t));
    j.set("memory", toJson(rep.memory));
    j.set("microbatches",
          JsonValue::number(double(rep.microbatches)));
    j.set("bubbleFraction", JsonValue::number(rep.bubbleFraction));
    j.set("modelFlops", JsonValue::number(rep.modelFlops));
    j.set("mfu", JsonValue::number(rep.mfu));
    return j;
}

JsonValue
toJson(const InferenceReport &rep)
{
    auto phase = [](const PhaseReport &p) {
        JsonValue j = JsonValue::object();
        j.set("time", JsonValue::number(p.time));
        j.set("computeBoundGemmTime",
              JsonValue::number(p.computeBoundGemmTime));
        j.set("memoryBoundGemmTime",
              JsonValue::number(p.memoryBoundGemmTime));
        j.set("otherKernelTime",
              JsonValue::number(p.otherKernelTime));
        j.set("commTime", JsonValue::number(p.commTime));
        j.set("overheadTime", JsonValue::number(p.overheadTime));
        j.set("memoryTime", JsonValue::number(p.memoryTime));
        return j;
    };
    JsonValue j = JsonValue::object();
    j.set("totalLatency", JsonValue::number(rep.totalLatency));
    j.set("prefill", phase(rep.prefill));
    j.set("decode", phase(rep.decode));
    j.set("kvCacheBytes", JsonValue::number(rep.kvCacheBytes));
    j.set("weightBytes", JsonValue::number(rep.weightBytes));
    j.set("fitsDeviceMemory",
          JsonValue::boolean(rep.fitsDeviceMemory));
    return j;
}

JsonValue
toJson(const lint::Diagnostic &diag)
{
    JsonValue j = JsonValue::object();
    j.set("severity",
          JsonValue::string(lint::severityName(diag.severity)));
    j.set("rule", JsonValue::string(diag.ruleId));
    j.set("message", JsonValue::string(diag.message));
    if (!diag.hint.empty())
        j.set("hint", JsonValue::string(diag.hint));
    return j;
}

JsonValue
toJson(const lint::LintReport &report)
{
    JsonValue diags = JsonValue::array();
    for (const lint::Diagnostic &d : report.diagnostics())
        diags.push(toJson(d));
    JsonValue j = JsonValue::object();
    j.set("diagnostics", std::move(diags));
    j.set("errors",
          JsonValue::number(double(report.errorCount())));
    j.set("warnings",
          JsonValue::number(double(report.warningCount())));
    return j;
}

// ---- Deserialization -----------------------------------------------------

NetworkLink
linkFromJson(const JsonValue &j)
{
    NetworkLink base;
    if (j.has("preset")) {
        const std::string name = j.at("preset").asString();
        if (name == "nvlink3")
            base = presets::nvlink3();
        else if (name == "nvlink4")
            base = presets::nvlink4();
        else if (name == "nvlink5")
            base = presets::nvlink5();
        else if (name == "hdr-ib")
            base = presets::hdrInfiniBand();
        else if (name == "ndr-ib")
            base = presets::ndrInfiniBand();
        else if (name == "xdr-ib")
            base = presets::xdrInfiniBand();
        else
            throw ConfigError("unknown link preset: " + name);
    }
    base.name = j.getString("name", base.name);
    base.bandwidth = j.getNumber("bandwidth", base.bandwidth);
    base.latency = j.getNumber("latency", base.latency);
    base.halfUtilVolume =
        j.getNumber("halfUtilVolume", base.halfUtilVolume);
    base.maxUtilization =
        j.getNumber("maxUtilization", base.maxUtilization);
    base.collectiveOverhead =
        j.getNumber("collectiveOverhead", base.collectiveOverhead);
    base.validate();
    return base;
}

Device
deviceFromJson(const JsonValue &j)
{
    Device dev;
    if (j.has("preset"))
        dev = devicePreset(j.at("preset").asString());

    dev.name = j.getString("name", dev.name);
    if (j.has("matrixThroughput")) {
        dev.matrixThroughput.clear();
        for (const auto &[k, v] : j.at("matrixThroughput").asObject())
            dev.matrixThroughput[parsePrecision(k)] = v.asNumber();
    }
    if (j.has("vectorThroughput")) {
        dev.vectorThroughput.clear();
        for (const auto &[k, v] : j.at("vectorThroughput").asObject())
            dev.vectorThroughput[parsePrecision(k)] = v.asNumber();
    }
    if (j.has("mem")) {
        dev.mem.clear();
        for (const JsonValue &level : j.at("mem").asArray()) {
            MemoryLevel m;
            m.name = level.at("name").asString();
            m.capacity = level.at("capacity").asNumber();
            m.bandwidth = level.at("bandwidth").asNumber();
            m.utilization = level.getNumber("utilization", 0.85);
            dev.mem.push_back(m);
        }
    }
    dev.matrixMaxEfficiency =
        j.getNumber("matrixMaxEfficiency", dev.matrixMaxEfficiency);
    dev.gemmKHalf = j.getNumber("gemmKHalf", dev.gemmKHalf);
    dev.gemvDramUtilization =
        j.getNumber("gemvDramUtilization", dev.gemvDramUtilization);
    dev.kernelLaunchOverhead =
        j.getNumber("kernelLaunchOverhead", dev.kernelLaunchOverhead);
    dev.validate();
    return dev;
}

System
systemFromJson(const JsonValue &j)
{
    if (j.has("preset")) {
        System sys = systemPreset(
            j.at("preset").asString(),
            static_cast<int>(j.getInt("numNodes", 1)));
        if (j.has("device"))
            sys.device = deviceFromJson(j.at("device"));
        sys.validate();
        return sys;
    }
    System sys;
    sys.device = deviceFromJson(j.at("device"));
    sys.devicesPerNode =
        static_cast<int>(j.getInt("devicesPerNode", 8));
    sys.numNodes = static_cast<int>(j.getInt("numNodes", 1));
    sys.intraLink = linkFromJson(j.at("intraLink"));
    sys.interLink = linkFromJson(j.at("interLink"));
    sys.validate();
    return sys;
}

TransformerConfig
modelFromJson(const JsonValue &j)
{
    TransformerConfig cfg;
    if (j.has("preset"))
        cfg = modelPreset(j.at("preset").asString());
    cfg.name = j.getString("name", cfg.name);
    cfg.numLayers = j.getInt("numLayers", cfg.numLayers);
    cfg.hiddenSize = j.getInt("hiddenSize", cfg.hiddenSize);
    cfg.numHeads = j.getInt("numHeads", cfg.numHeads);
    cfg.numKvHeads = j.getInt("numKvHeads", cfg.numKvHeads ? cfg.numKvHeads
                                                           : cfg.numHeads);
    cfg.ffnHidden = j.getInt("ffnHidden", cfg.ffnHidden);
    cfg.vocabSize = j.getInt("vocabSize", cfg.vocabSize);
    cfg.maxSeqLength = j.getInt("maxSeqLength", cfg.maxSeqLength);
    cfg.numExperts = j.getInt("numExperts", cfg.numExperts);
    cfg.topK = j.getInt("topK", cfg.topK);
    cfg.slidingWindow = j.getInt("slidingWindow", cfg.slidingWindow);
    if (j.has("mlp")) {
        const std::string kind = j.at("mlp").asString();
        if (kind == "swiglu")
            cfg.mlp = MlpKind::SwiGlu;
        else if (kind == "gelu")
            cfg.mlp = MlpKind::GeluTwoLayer;
        else
            throw ConfigError("unknown mlp kind: " + kind);
    }
    cfg.validate();
    return cfg;
}

ParallelConfig
parallelFromJson(const JsonValue &j)
{
    ParallelConfig par;
    par.dataParallel = j.getInt("dataParallel", par.dataParallel);
    par.tensorParallel =
        j.getInt("tensorParallel", par.tensorParallel);
    par.pipelineParallel =
        j.getInt("pipelineParallel", par.pipelineParallel);
    par.sequenceParallel =
        j.getBool("sequenceParallel", par.sequenceParallel);
    if (j.has("schedule"))
        par.schedule = scheduleFromName(j.at("schedule").asString());
    par.microbatchSize =
        j.getInt("microbatchSize", par.microbatchSize);
    par.interleavedStages =
        j.getInt("interleavedStages", par.interleavedStages);
    par.expertParallel =
        j.getInt("expertParallel", par.expertParallel);
    par.contextParallel =
        j.getInt("contextParallel", par.contextParallel);
    return par;
}

TrainingOptions
trainingOptionsFromJson(const JsonValue &j)
{
    TrainingOptions opts;
    if (j.has("precision"))
        opts.precision = parsePrecision(j.at("precision").asString());
    if (j.has("recompute"))
        opts.recompute = parseRecompute(j.at("recompute").asString());
    opts.seqLength = j.getInt("seqLength", opts.seqLength);
    if (j.has("collectiveAlgorithm"))
        opts.collectiveAlgorithm = parseCollectiveAlgorithm(
            j.at("collectiveAlgorithm").asString());
    opts.dpOverlapFraction =
        j.getNumber("dpOverlapFraction", opts.dpOverlapFraction);
    opts.tpOverlapFraction =
        j.getNumber("tpOverlapFraction", opts.tpOverlapFraction);
    opts.flashAttention =
        j.getBool("flashAttention", opts.flashAttention);
    opts.memory.zeroStage = static_cast<int>(
        j.getInt("zeroStage", opts.memory.zeroStage));
    return opts;
}

InferenceOptions
inferenceOptionsFromJson(const JsonValue &j)
{
    InferenceOptions opts;
    if (j.has("precision"))
        opts.precision = parsePrecision(j.at("precision").asString());
    opts.tensorParallel =
        j.getInt("tensorParallel", opts.tensorParallel);
    opts.pipelineParallel =
        j.getInt("pipelineParallel", opts.pipelineParallel);
    opts.batch = j.getInt("batch", opts.batch);
    opts.promptLength = j.getInt("promptLength", opts.promptLength);
    opts.generateLength =
        j.getInt("generateLength", opts.generateLength);
    if (j.has("collectiveAlgorithm"))
        opts.collectiveAlgorithm = parseCollectiveAlgorithm(
            j.at("collectiveAlgorithm").asString());
    opts.flashAttention =
        j.getBool("flashAttention", opts.flashAttention);
    opts.kvPrecision =
        j.has("kvPrecision")
            ? parsePrecision(j.at("kvPrecision").asString())
            : opts.precision;
    return opts;
}

} // namespace config
} // namespace optimus
