/**
 * @file
 * Unit tests for the config (de)serialization layer, the run config
 * and the preset registries.
 */

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "config/run.h"
#include "config/serialize.h"
#include "hw/presets.h"
#include "report/record.h"
#include "util/error.h"
#include "util/units.h"
#include "workload/presets.h"

namespace optimus {
namespace {

TEST(Registry, KnowsAllPresets)
{
    EXPECT_EQ(config::devicePresetNames().size(), 7u);
    EXPECT_EQ(config::systemPresetNames().size(), 8u);
    EXPECT_EQ(config::modelPresetNames().size(), 13u);
    EXPECT_EQ(config::devicePreset("a100-80gb").name, "A100-80GB");
    EXPECT_EQ(config::modelPreset("llama2-70b").numKvHeads, 8);
    EXPECT_EQ(config::systemPreset("dgx-h100", 4).totalDevices(), 32);
    EXPECT_THROW(config::devicePreset("tpu-v9"), ConfigError);
    EXPECT_THROW(config::modelPreset("gpt-5"), ConfigError);
    EXPECT_THROW(config::systemPreset("dgx-x", 1), ConfigError);
}

TEST(Serialize, DeviceRoundTrips)
{
    Device d = presets::h100_sxm();
    Device back = config::deviceFromJson(config::toJson(d));
    EXPECT_EQ(back.name, d.name);
    EXPECT_DOUBLE_EQ(back.matrixFlops(Precision::FP8),
                     d.matrixFlops(Precision::FP8));
    ASSERT_EQ(back.mem.size(), d.mem.size());
    for (size_t i = 0; i < d.mem.size(); ++i) {
        EXPECT_DOUBLE_EQ(back.mem[i].bandwidth, d.mem[i].bandwidth);
        EXPECT_DOUBLE_EQ(back.mem[i].capacity, d.mem[i].capacity);
    }
    EXPECT_DOUBLE_EQ(back.gemmKHalf, d.gemmKHalf);
}

TEST(Serialize, ModelRoundTrips)
{
    TransformerConfig m = models::llama2_70b();
    TransformerConfig back = config::modelFromJson(config::toJson(m));
    EXPECT_EQ(back.name, m.name);
    EXPECT_EQ(back.numLayers, m.numLayers);
    EXPECT_EQ(back.numKvHeads, 8);
    EXPECT_EQ(back.mlp, MlpKind::SwiGlu);
    EXPECT_DOUBLE_EQ(back.parameterCount(), m.parameterCount());
}

TEST(Serialize, SystemRoundTrips)
{
    System s = presets::dgxB200Nvs(16);
    System back = config::systemFromJson(config::toJson(s));
    EXPECT_EQ(back.totalDevices(), s.totalDevices());
    EXPECT_DOUBLE_EQ(back.interLink.bandwidth,
                     s.interLink.bandwidth);
    EXPECT_DOUBLE_EQ(back.device.dram().bandwidth,
                     s.device.dram().bandwidth);
}

TEST(Serialize, ParallelRoundTrips)
{
    ParallelConfig p;
    p.dataParallel = 4;
    p.tensorParallel = 8;
    p.pipelineParallel = 2;
    p.sequenceParallel = true;
    p.schedule = PipelineSchedule::Interleaved1F1B;
    p.interleavedStages = 6;
    ParallelConfig back =
        config::parallelFromJson(config::toJson(p));
    EXPECT_EQ(back.label(), p.label());
    EXPECT_EQ(back.schedule, p.schedule);
    EXPECT_EQ(back.interleavedStages, 6);
}

TEST(Serialize, CollectiveAlgorithmRoundTrips)
{
    const std::pair<CollectiveAlgorithm, const char *> algorithms[] = {
        {CollectiveAlgorithm::Auto, "auto"},
        {CollectiveAlgorithm::Ring, "ring"},
        {CollectiveAlgorithm::DoubleBinaryTree, "tree"}};
    for (const auto &[algo, name] : algorithms) {
        TrainingOptions t;
        t.collectiveAlgorithm = algo;
        const JsonValue tj = config::toJson(t);
        EXPECT_EQ(tj.at("collectiveAlgorithm").asString(), name);
        EXPECT_EQ(config::trainingOptionsFromJson(tj).collectiveAlgorithm,
                  algo);

        InferenceOptions i;
        i.collectiveAlgorithm = algo;
        const JsonValue ij = config::toJson(i);
        EXPECT_EQ(ij.at("collectiveAlgorithm").asString(), name);
        EXPECT_EQ(config::inferenceOptionsFromJson(ij).collectiveAlgorithm,
                  algo);
    }
    EXPECT_THROW(config::trainingOptionsFromJson(JsonValue::parse(
                     R"({"collectiveAlgorithm": "mesh"})")),
                 ConfigError);
}

TEST(Deserialize, PresetReference)
{
    JsonValue j = JsonValue::parse(R"({"preset": "a100-80gb"})");
    Device d = config::deviceFromJson(j);
    EXPECT_EQ(d.name, "A100-80GB");
}

TEST(Deserialize, PresetWithOverride)
{
    // Start from the A100 and swap the DRAM bandwidth: the Fig. 9
    // style technology swap expressed as a config file.
    JsonValue j = JsonValue::parse(R"({
        "preset": "a100-80gb",
        "name": "A100-HBM3E",
        "mem": [
            {"name": "DRAM", "capacity": 1.51e11,
             "bandwidth": 4.8e12, "utilization": 0.85},
            {"name": "L2", "capacity": 4.19e7, "bandwidth": 5.5e12},
            {"name": "SMEM", "capacity": 2.1e7, "bandwidth": 1.9e13}
        ]
    })");
    Device d = config::deviceFromJson(j);
    EXPECT_EQ(d.name, "A100-HBM3E");
    EXPECT_DOUBLE_EQ(d.dram().bandwidth, 4.8e12);
    // Non-overridden fields keep the preset values.
    EXPECT_DOUBLE_EQ(d.matrixFlops(Precision::FP16), 312 * TFLOPS);
}

TEST(Deserialize, FullSystemFromScratch)
{
    JsonValue j = JsonValue::parse(R"({
        "device": {"preset": "h100-sxm"},
        "devicesPerNode": 4,
        "numNodes": 2,
        "intraLink": {"preset": "nvlink4"},
        "interLink": {"preset": "ndr-ib", "bandwidth": 2.0e11}
    })");
    System sys = config::systemFromJson(j);
    EXPECT_EQ(sys.totalDevices(), 8);
    EXPECT_DOUBLE_EQ(sys.interLink.bandwidth, 2.0e11);
    EXPECT_EQ(sys.intraLink.name, "NVLink4");
}

TEST(Deserialize, SystemPresetIsABase)
{
    System sys = config::systemFromJson(JsonValue::parse(R"({
        "preset": "dgx-a100",
        "devicesPerNode": 4,
        "intraLink": {"preset": "nvlink5"}
    })"));
    EXPECT_EQ(sys.devicesPerNode, 4);
    EXPECT_EQ(sys.intraLink.name, presets::nvlink5().name);
    EXPECT_DOUBLE_EQ(sys.intraLink.bandwidth, presets::nvlink5().bandwidth);
    // The fields the config does not name keep the preset's values.
    EXPECT_EQ(sys.device.name, presets::a100_80gb().name);
    EXPECT_EQ(sys.interLink.name, presets::dgxA100(1).interLink.name);
}

TEST(Deserialize, OptionsFromJson)
{
    TrainingOptions t = config::trainingOptionsFromJson(
        JsonValue::parse(R"({"precision": "fp8",
                             "recompute": "selective",
                             "seqLength": 4096,
                             "flashAttention": true,
                             "zeroStage": 2})"));
    EXPECT_EQ(t.precision, Precision::FP8);
    EXPECT_EQ(t.recompute, Recompute::Selective);
    EXPECT_EQ(t.seqLength, 4096);
    EXPECT_TRUE(t.flashAttention);
    EXPECT_EQ(t.memory.zeroStage, 2);
    EXPECT_DOUBLE_EQ(activationBytes(t.precision), 1.0);

    InferenceOptions i = config::inferenceOptionsFromJson(
        JsonValue::parse(R"({"tensorParallel": 4, "batch": 16,
                             "promptLength": 512,
                             "generateLength": 64})"));
    EXPECT_EQ(i.tensorParallel, 4);
    EXPECT_EQ(i.batch, 16);
    EXPECT_EQ(i.promptLength, 512);
    EXPECT_EQ(i.generateLength, 64);
}

TEST(Deserialize, RejectsUnknownEnumValues)
{
    EXPECT_THROW(config::trainingOptionsFromJson(JsonValue::parse(
                     R"({"recompute": "sometimes"})")),
                 ConfigError);
    EXPECT_THROW(config::parallelFromJson(JsonValue::parse(
                     R"({"schedule": "zigzag"})")),
                 ConfigError);
    EXPECT_THROW(config::modelFromJson(JsonValue::parse(
                     R"({"preset": "gpt-7b", "mlp": "relu6"})")),
                 ConfigError);
    EXPECT_THROW(config::linkFromJson(JsonValue::parse(
                     R"({"preset": "carrier-pigeon"})")),
                 ConfigError);
}

/** The writer's output for @p j after a round trip through the reader. */
template <class T, T (*Read)(const JsonValue &)>
JsonValue
replay(const JsonValue &j)
{
    return config::toJson(Read(j));
}

/** Object @p j with member @p key spelled @p to, in place. */
JsonValue
renamed(const JsonValue &j, const std::string &key, const std::string &to)
{
    JsonValue out = JsonValue::object();
    for (const auto &[k, v] : j.asObject())
        out.set(k == key ? to : k, v);
    return out;
}

/** True when @p read rejects @p j with OPT-CFG-025. */
bool
rejectsUnknownField(JsonValue (*read)(const JsonValue &), const JsonValue &j)
{
    try {
        read(j);
    } catch (const LintError &e) {
        return e.report().has(lint::kRuleUnknownField);
    }
    return false;
}

TEST(Serialize, EveryFieldRoundTripsAndRejectsItsTypo)
{
    ParallelConfig par{.dataParallel = 2,
                       .tensorParallel = 4,
                       .pipelineParallel = 2,
                       .sequenceParallel = true,
                       .schedule = PipelineSchedule::Interleaved1F1B,
                       .microbatchSize = 2,
                       .interleavedStages = 3,
                       .expertParallel = 2,
                       .contextParallel = 2};
    TrainingOptions train;
    train.precision = Precision::FP8;
    train.recompute = Recompute::Selective;
    train.seqLength = 4096;
    train.collectiveAlgorithm = CollectiveAlgorithm::Ring;
    train.dpOverlapFraction = 0.25;
    train.tpOverlapFraction = 0.5;
    train.flashAttention = true;
    train.memory.zeroStage = 2;
    InferenceOptions infer;
    infer.tensorParallel = 2;
    infer.pipelineParallel = 2;
    infer.batch = 8;
    infer.promptLength = 1024;
    infer.generateLength = 64;
    infer.collectiveAlgorithm = CollectiveAlgorithm::DoubleBinaryTree;
    infer.flashAttention = true;
    infer.kvPrecision = Precision::FP8;
    TrainingPlannerOptions planner;
    planner.zeroStages = {0, 1, 3};
    planner.recomputeChoices = {Recompute::Selective};
    planner.microbatchSizes = {1, 2, 4};
    planner.keep = 3;

    const struct
    {
        JsonValue json;
        JsonValue (*replay)(const JsonValue &);
    } cases[] = {
        {config::toJson(presets::ndrInfiniBand()),
         replay<NetworkLink, config::linkFromJson>},
        {config::toJson(presets::h100_sxm()),
         replay<Device, config::deviceFromJson>},
        {config::toJson(presets::dgxB200Nvs(4)),
         replay<System, config::systemFromJson>},
        {config::toJson(models::mixtral8x7b()),
         replay<TransformerConfig, config::modelFromJson>},
        {config::toJson(par),
         replay<ParallelConfig, config::parallelFromJson>},
        {config::toJson(train),
         replay<TrainingOptions, config::trainingOptionsFromJson>},
        {config::toJson(infer),
         replay<InferenceOptions, config::inferenceOptionsFromJson>},
        {config::toJson(planner),
         replay<TrainingPlannerOptions, config::plannerOptionsFromJson>},
    };
    for (const auto &c : cases) {
        const std::string dump = c.json.dump();
        EXPECT_EQ(c.replay(c.json).dump(), dump);
        for (const auto &[key, value] : c.json.asObject())
            EXPECT_TRUE(rejectsUnknownField(
                c.replay, renamed(c.json, key, key.substr(0, key.size() - 1))))
                << key << " misspelt in " << dump;
    }

    // A device's memory levels have a list of their own.
    const JsonValue device = config::toJson(presets::h100_sxm());
    const JsonValue &levels = device.at("mem");
    for (const auto &[key, value] : levels.asArray().front().asObject()) {
        JsonValue mem = JsonValue::array();
        for (const JsonValue &level : levels.asArray())
            mem.push(renamed(level, key, key.substr(0, key.size() - 1)));
        JsonValue typo = device;
        typo.set("mem", std::move(mem));
        EXPECT_TRUE(rejectsUnknownField(
            replay<Device, config::deviceFromJson>, typo))
            << key << " misspelt in a memory level";
    }
}

TEST(Serialize, ReportsAreWellFormed)
{
    System sys = presets::dgxA100(8);
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    TrainingReport rep =
        evaluateTraining(models::gpt175b(), sys, par, 64, {});
    JsonValue j = config::toJson(rep);
    // Re-parse the dump to prove it is valid JSON with the expected
    // members.
    JsonValue back = JsonValue::parse(j.dump(2));
    EXPECT_NEAR(back.at("timePerBatch").asNumber(), rep.timePerBatch,
                1e-9);
    EXPECT_NEAR(back.at("time").at("forward").asNumber(),
                rep.time.forward, 1e-9);
    EXPECT_NEAR(back.at("memory").at("total").asNumber(),
                rep.memory.total(), 1.0);

    InferenceOptions iopts;
    InferenceReport irep =
        evaluateInference(models::llama2_13b(), sys, iopts);
    JsonValue ij = config::toJson(irep);
    JsonValue iback = JsonValue::parse(ij.dump());
    EXPECT_NEAR(iback.at("totalLatency").asNumber(),
                irep.totalLatency, 1e-9);
    EXPECT_TRUE(iback.at("fitsDeviceMemory").asBool());
}

TEST(RunConfig, RoundTripsEveryPreset)
{
    for (const std::string &model : config::modelPresetNames())
        for (const char *system : {"dgx-a100", "dgx-h100"})
            for (bool infer : {false, true}) {
                optimus::Run run{.model = config::modelPreset(model),
                        .sys = config::systemPreset(system, 2),
                        .infer = infer};
                if (infer) {
                    run.inference.tensorParallel = 2;
                    run.inference.batch = 16;
                    run.inference.promptLength = 512;
                    run.inference.generateLength = 64;
                    run.inference.flashAttention = true;
                    run.inference.kvPrecision = Precision::FP8;
                } else {
                    run.par.dataParallel = 4;
                    run.par.tensorParallel = 2;
                    run.par.pipelineParallel = 2;
                    run.par.sequenceParallel = true;
                    run.batch = 96;
                    run.training.recompute = Recompute::Selective;
                    run.training.dpOverlapFraction = 0.3;
                    run.training.tpOverlapFraction = 0.55;
                    run.training.memory.zeroStage = 2;
                }
                const std::string dump = config::toJson(run).dump();
                EXPECT_EQ(
                    config::toJson(config::runFromJson(config::toJson(run)))
                        .dump(),
                    dump)
                    << model << " on " << system
                    << (infer ? " inference" : " training");
            }
}

TEST(RunConfig, ReadsTheModeAndTheTrainingBatch)
{
    const std::string base = R"("model": {"preset": "gpt-7b"},
                                "system": {"preset": "dgx-a100"})";
    optimus::Run run = config::runFromJson(JsonValue::parse("{" + base + "}"));
    EXPECT_FALSE(run.infer);
    EXPECT_EQ(run.batch, 64);
    run = config::runFromJson(
        JsonValue::parse("{" + base + R"(, "batch": 32})"));
    EXPECT_EQ(run.batch, 32);
    run = config::runFromJson(JsonValue::parse(
        "{" + base + R"(, "inference": {"batch": 8}})"));
    EXPECT_TRUE(run.infer);
    EXPECT_EQ(run.inference.batch, 8);
}

TEST(RunConfig, FingerprintsArePinned)
{
    // The fingerprints (hashes of the compact dumps) that every
    // earlier build recorded for these two runs. (Inside a TEST body
    // a bare Run names testing::Test::Run.)
    optimus::Run train{.model = models::gpt7b(),
              .sys = presets::dgxH100(2),
              .batch = 32};
    train.par.dataParallel = 2;
    train.par.tensorParallel = 4;
    train.par.pipelineParallel = 2;
    train.training.flashAttention = true;
    train.training.memory.zeroStage = 1;
    EXPECT_EQ(report::fingerprintJson(config::toJson(train)),
              "c96c9433b7073f83")
        << config::toJson(train).dump();

    optimus::Run infer{.model = models::llama2_70b(),
              .sys = presets::dgxH100(1),
              .infer = true};
    infer.inference.tensorParallel = 4;
    infer.inference.batch = 8;
    infer.inference.promptLength = 1024;
    infer.inference.generateLength = 256;
    infer.inference.flashAttention = true;
    infer.inference.kvPrecision = Precision::FP8;
    EXPECT_EQ(report::fingerprintJson(config::toJson(infer)),
              "391be4751e60c9f7")
        << config::toJson(infer).dump();
}

} // namespace
} // namespace optimus
