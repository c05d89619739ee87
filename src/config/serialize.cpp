#include "config/serialize.h"

#include <algorithm>
#include <functional>
#include <map>
#include <type_traits>

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

NetworkLink
linkPreset(const std::string &name)
{
    static const std::map<std::string, NetworkLink (*)()> reg = {
        {"nvlink3", presets::nvlink3},      {"nvlink4", presets::nvlink4},
        {"nvlink5", presets::nvlink5},      {"hdr-ib", presets::hdrInfiniBand},
        {"ndr-ib", presets::ndrInfiniBand}, {"xdr-ib", presets::xdrInfiniBand},
    };
    auto it = reg.find(name);
    checkConfig(it != reg.end(), "unknown link preset: " + name);
    return it->second();
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

// ---- Field lists -------------------------------------------------------
//
// Each config type names its fields once, in writer order. The Writer
// emits every field the list names and the Reader replaces each one the
// object has, so the two round-trip by construction, and a member the
// list does not name is an OPT-CFG-025 error.

namespace {

/** The value in @p values that @p name_of spells @p name. */
template <class E>
E
parseName(const std::string &name, const char *(*name_of)(E),
          std::initializer_list<E> values, const char *what)
{
    for (E e : values)
        if (name == name_of(e))
            return e;
    throw ConfigError(std::string("unknown ") + what + ": " + name);
}

const char *
mlpName(MlpKind k)
{
    return k == MlpKind::SwiGlu ? "swiglu" : "gelu";
}

// One codec per enum: the name a list writes, and its parser.
auto codec(Precision) { return std::pair(&precisionName, &parsePrecision); }
auto codec(Recompute) { return std::pair(&recomputeName, &parseRecompute); }
auto
codec(CollectiveAlgorithm)
{
    return std::pair(&collectiveAlgorithmName, &parseCollectiveAlgorithm);
}
auto
codec(PipelineSchedule)
{
    return std::pair(&scheduleName, [](const std::string &name) {
        return parseName(name, scheduleName,
                         {PipelineSchedule::GPipe, PipelineSchedule::OneFOneB,
                          PipelineSchedule::Interleaved1F1B},
                         "pipeline schedule");
    });
}
auto
codec(MlpKind)
{
    return std::pair(&mlpName, [](const std::string &name) {
        return parseName(name, mlpName,
                         {MlpKind::GeluTwoLayer, MlpKind::SwiGlu},
                         "mlp kind");
    });
}

template <class V>
void fields(V &v, NetworkLink &l)
{
    v("name", l.name);
    v("bandwidth", l.bandwidth);
    v("latency", l.latency);
    v("halfUtilVolume", l.halfUtilVolume);
    v("maxUtilization", l.maxUtilization);
    v("collectiveOverhead", l.collectiveOverhead);
}

template <class V>
void fields(V &v, MemoryLevel &m)
{
    v("name", m.name);
    v("capacity", m.capacity);
    v("bandwidth", m.bandwidth);
    v("utilization", m.utilization);
}

template <class V>
void fields(V &v, Device &d)
{
    v("name", d.name);
    v("matrixThroughput", d.matrixThroughput);
    v("vectorThroughput", d.vectorThroughput);
    v("mem", d.mem);
    v("matrixMaxEfficiency", d.matrixMaxEfficiency);
    v("gemmKHalf", d.gemmKHalf);
    v("gemvDramUtilization", d.gemvDramUtilization);
    v("kernelLaunchOverhead", d.kernelLaunchOverhead);
}

template <class V>
void fields(V &v, System &s)
{
    v("device", s.device);
    v("devicesPerNode", s.devicesPerNode);
    v("numNodes", s.numNodes);
    v("intraLink", s.intraLink);
    v("interLink", s.interLink);
}

template <class V>
void fields(V &v, TransformerConfig &c)
{
    v("name", c.name);
    v("numLayers", c.numLayers);
    v("hiddenSize", c.hiddenSize);
    v("numHeads", c.numHeads);
    v("numKvHeads", c.numKvHeads);
    v("ffnHidden", c.ffnHidden);
    v("vocabSize", c.vocabSize);
    v("maxSeqLength", c.maxSeqLength);
    v("mlp", c.mlp);
    v("numExperts", c.numExperts);
    v("topK", c.topK);
    v("slidingWindow", c.slidingWindow);
}

template <class V>
void fields(V &v, ParallelConfig &p)
{
    v("dataParallel", p.dataParallel);
    v("tensorParallel", p.tensorParallel);
    v("pipelineParallel", p.pipelineParallel);
    v("sequenceParallel", p.sequenceParallel);
    v("schedule", p.schedule);
    v("microbatchSize", p.microbatchSize);
    v("interleavedStages", p.interleavedStages);
    v("expertParallel", p.expertParallel);
    v("contextParallel", p.contextParallel);
}

/** The trace pointer is runtime state, not configuration. */
template <class V>
void fields(V &v, TrainingOptions &o)
{
    v("precision", o.precision);
    v("recompute", o.recompute);
    v("seqLength", o.seqLength);
    v("collectiveAlgorithm", o.collectiveAlgorithm);
    v("dpOverlapFraction", o.dpOverlapFraction);
    v("tpOverlapFraction", o.tpOverlapFraction);
    v("flashAttention", o.flashAttention);
    v("zeroStage", o.memory.zeroStage);
}

template <class V>
void fields(V &v, InferenceOptions &o)
{
    v("precision", o.precision);
    v("tensorParallel", o.tensorParallel);
    v("pipelineParallel", o.pipelineParallel);
    v("batch", o.batch);
    v("promptLength", o.promptLength);
    v("generateLength", o.generateLength);
    v("collectiveAlgorithm", o.collectiveAlgorithm);
    v("flashAttention", o.flashAttention);
    v("kvPrecision", o.kvPrecision);
}

/** The search only: the run's options and the threads are not in it. */
template <class V>
void fields(V &v, TrainingPlannerOptions &o)
{
    v("zeroStages", o.zeroStages);
    v("recomputeChoices", o.recomputeChoices);
    v("microbatchSizes", o.microbatchSizes);
    v("keep", o.keep);
}

/** Sets each field a list names on an object, in list order. */
struct Writer
{
    JsonValue j = JsonValue::object();

    template <class T>
    void operator()(const char *key, const T &field)
    {
        j.set(key, encode(field));
    }

    template <class T>
    static JsonValue encode(const T &v)
    {
        if constexpr (std::is_same_v<T, bool>)
            return JsonValue::boolean(v);
        else if constexpr (std::is_arithmetic_v<T>)
            return JsonValue::number(double(v));
        else if constexpr (std::is_enum_v<T>)
            return JsonValue::string(codec(v).first(v));
        else if constexpr (std::is_same_v<T, std::string>)
            return JsonValue::string(v);
        else {
            Writer w;
            fields(w, const_cast<T &>(v));  // the writer only reads
            return std::move(w.j);
        }
    }

    template <class T>
    static JsonValue encode(const std::vector<T> &values)
    {
        JsonValue a = JsonValue::array();
        for (const T &v : values)
            a.push(encode(v));
        return a;
    }

    template <class K>
    static JsonValue encode(const std::map<K, double> &values)
    {
        JsonValue o = JsonValue::object();
        for (const auto &[k, v] : values)
            o.set(codec(k).first(k), JsonValue::number(v));
        return o;
    }
};

/** Replaces each field a list names that the object has. */
struct Reader
{
    const JsonValue &j;
    std::vector<const char *> known;  ///< the list's keys
    std::vector<const void *> given;  ///< the fields the object sets

    /**
     * Read object @p j over @p obj, a @p type. A type with presets
     * passes @p preset, and a "preset" member then replaces @p obj
     * before the fields do.
     */
    template <class T, class Preset = std::nullptr_t>
    static Reader read(const JsonValue &j, T &obj, const char *type,
                       Preset preset = nullptr)
    {
        Reader r{j, {}, {}};
        if constexpr (!std::is_null_pointer_v<Preset>) {
            r.known.push_back("preset");
            if (j.has("preset"))
                obj = preset(j.at("preset").asString());
        }
        fields(r, obj);
        rejectUnknownFields(j, r.known, std::string(type) + " field");
        return r;
    }

    template <class T>
    void operator()(const char *key, T &field)
    {
        known.push_back(key);
        if (!j.has(key))
            return;
        decode(j.at(key), field);
        given.push_back(&field);
    }

    /** True when the object sets @p field. */
    bool sets(const void *field) const
    {
        return std::find(given.begin(), given.end(), field) != given.end();
    }

    template <class T>
    static void decode(const JsonValue &v, T &field)
    {
        if constexpr (std::is_same_v<T, bool>)
            field = v.asBool();
        else if constexpr (std::is_integral_v<T>)
            field = static_cast<T>(v.asInt());
        else if constexpr (std::is_floating_point_v<T>)
            field = v.asNumber();
        else if constexpr (std::is_enum_v<T>)
            field = codec(field).second(v.asString());
        else if constexpr (std::is_same_v<T, std::string>)
            field = v.asString();
        else if constexpr (std::is_same_v<T, Device>)
            field = deviceFromJson(v);
        else if constexpr (std::is_same_v<T, NetworkLink>)
            field = linkFromJson(v);
        else {
            static_assert(std::is_same_v<T, MemoryLevel>);
            field.utilization = 0.85;  // a level's streaming default
            read(v, field, "memory level");
        }
    }

    template <class T>
    static void decode(const JsonValue &v, std::vector<T> &field)
    {
        field.clear();
        for (const JsonValue &item : v.asArray())
            decode(item, field.emplace_back());
    }

    template <class K>
    static void decode(const JsonValue &v, std::map<K, double> &field)
    {
        field.clear();
        for (const auto &[k, x] : v.asObject())
            field[codec(K{}).second(k)] = x.asNumber();
    }
};

} // namespace

// ---- Serialization -----------------------------------------------------

JsonValue toJson(const NetworkLink &link) { return Writer::encode(link); }
JsonValue toJson(const Device &dev) { return Writer::encode(dev); }
JsonValue toJson(const System &sys) { return Writer::encode(sys); }
JsonValue toJson(const TransformerConfig &cfg) { return Writer::encode(cfg); }
JsonValue toJson(const ParallelConfig &par) { return Writer::encode(par); }
JsonValue toJson(const TrainingOptions &opts) { return Writer::encode(opts); }
JsonValue toJson(const InferenceOptions &opts) { return Writer::encode(opts); }
JsonValue toJson(const TrainingPlannerOptions &o) { return Writer::encode(o); }

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

void
rejectUnknownFields(const JsonValue &j, std::span<const char *const> known,
                    const std::string &what)
{
    lint::LintReport report;
    std::string names;
    for (const auto &[key, value] : j.asObject()) {
        if (std::find(known.begin(), known.end(), key) != known.end())
            continue;
        if (names.empty())
            for (const char *k : known)
                names += (names.empty() ? "" : ", ") + std::string(k);
        report.error(lint::kRuleUnknownField,
                     "unknown " + what + " \"" + key + "\"",
                     what + "s: " + names);
    }
    lint::enforce(report);
}

NetworkLink
linkFromJson(const JsonValue &j)
{
    NetworkLink link;
    Reader::read(j, link, "link", linkPreset);
    link.validate();
    return link;
}

Device
deviceFromJson(const JsonValue &j)
{
    Device dev;
    Reader::read(j, dev, "device", devicePreset);
    dev.validate();
    return dev;
}

System
systemFromJson(const JsonValue &j)
{
    System sys;
    Reader::read(j, sys, "system", [](const std::string &name) {
        return systemPreset(name, 1);
    });
    sys.validate();
    return sys;
}

TransformerConfig
modelFromJson(const JsonValue &j)
{
    TransformerConfig cfg;
    const Reader r = Reader::read(j, cfg, "model", modelPreset);
    if (cfg.numKvHeads == 0 && !r.sets(&cfg.numKvHeads))
        cfg.numKvHeads = cfg.numHeads;  // plain multi-head attention
    cfg.validate();
    return cfg;
}

ParallelConfig
parallelFromJson(const JsonValue &j)
{
    ParallelConfig par;
    Reader::read(j, par, "parallel");
    return par;
}

TrainingOptions
trainingOptionsFromJson(const JsonValue &j)
{
    TrainingOptions opts;
    Reader::read(j, opts, "training");
    return opts;
}

InferenceOptions
inferenceOptionsFromJson(const JsonValue &j)
{
    InferenceOptions opts;
    if (!Reader::read(j, opts, "inference").sets(&opts.kvPrecision))
        opts.kvPrecision = opts.precision;  // the KV cache follows the run
    return opts;
}

TrainingPlannerOptions
plannerOptionsFromJson(const JsonValue &j)
{
    TrainingPlannerOptions opts;
    Reader::read(j, opts, "planner");
    return opts;
}

} // namespace config
} // namespace optimus
