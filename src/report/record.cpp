#include "report/record.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "config/run.h"
#include "config/serialize.h"
#include "exec/exec.h"
#include "plan/plan.h"
#include "report/version.h"
#include "trace/trace.h"
#include "util/error.h"

namespace optimus {
namespace report {

namespace {

using clock = std::chrono::steady_clock;

double
secondsSince(clock::time_point t0)
{
    return std::chrono::duration<double>(clock::now() - t0).count();
}

/** A written number; null, a non-finite one, reads as NaN. */
double
numberOf(const JsonValue &v)
{
    return v.isNull() ? std::numeric_limits<double>::quiet_NaN()
                      : v.asNumber();
}

/** numberOf member @p key of @p obj, else @p fallback. */
double
numberAt(const JsonValue &obj, const std::string &key, double fallback)
{
    return obj.has(key) ? numberOf(obj.at(key)) : fallback;
}

/** Stamp build identity and fingerprint onto a fresh record. */
RunRecord
beginRecord(const std::string &kind, const std::string &label,
            JsonValue config)
{
    RunRecord rec;
    rec.schemaVersion = kSchemaVersion;
    rec.toolVersion = toolVersion();
    rec.gitSha = gitSha();
    rec.kind = kind;
    rec.label = label;
    rec.fingerprint = fingerprintJson(config);
    rec.config = std::move(config);
    return rec;
}

} // namespace

void
RunRecord::setMetric(const std::string &key, double value)
{
    for (auto &kv : metrics)
        if (kv.first == key) {
            kv.second = value;
            return;
        }
    metrics.emplace_back(key, value);
}

bool
RunRecord::hasMetric(const std::string &key) const
{
    for (const auto &kv : metrics)
        if (kv.first == key)
            return true;
    return false;
}

double
RunRecord::metric(const std::string &key) const
{
    for (const auto &kv : metrics)
        if (kv.first == key)
            return kv.second;
    return 0.0;
}

void
RunRecord::setAttr(const std::string &key, const std::string &value)
{
    for (auto &kv : attrs)
        if (kv.first == key) {
            kv.second = value;
            return;
        }
    attrs.emplace_back(key, value);
}

std::string
fingerprintJson(const JsonValue &config)
{
    // FNV-1a 64 over the compact dump: dependency-free, stable across
    // platforms, and sensitive to every serialized field.
    const std::string text = config.dump();
    std::uint64_t h = 1469598103934665603ull;
    for (char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

JsonValue
toJson(const RunRecord &rec)
{
    JsonValue j = JsonValue::object();
    j.set("schema_version",
          JsonValue::number(double(rec.schemaVersion)));
    JsonValue tool = JsonValue::object();
    tool.set("version", JsonValue::string(rec.toolVersion));
    tool.set("git_sha", JsonValue::string(rec.gitSha));
    j.set("tool", std::move(tool));
    j.set("kind", JsonValue::string(rec.kind));
    j.set("label", JsonValue::string(rec.label));
    j.set("fingerprint", JsonValue::string(rec.fingerprint));
    j.set("wall_seconds", JsonValue::number(rec.wallSeconds));
    j.set("threads", JsonValue::number(double(rec.threads)));
    j.set("config", rec.config);

    JsonValue metrics = JsonValue::object();
    for (const auto &kv : rec.metrics)
        metrics.set(kv.first, JsonValue::number(kv.second));
    j.set("metrics", std::move(metrics));

    JsonValue kernels = JsonValue::array();
    for (const KernelStat &k : rec.kernels) {
        JsonValue e = JsonValue::object();
        e.set("key", JsonValue::string(k.key));
        e.set("category", JsonValue::string(k.category));
        e.set("count", JsonValue::number(double(k.count)));
        e.set("time", JsonValue::number(k.time));
        e.set("flops", JsonValue::number(k.flops));
        e.set("dram_bytes", JsonValue::number(k.dramBytes));
        e.set("overhead", JsonValue::number(k.overhead));
        e.set("bound", JsonValue::string(k.bound));
        kernels.push(std::move(e));
    }
    j.set("kernels", std::move(kernels));

    JsonValue counters = JsonValue::object();
    for (const auto &kv : rec.counters)
        counters.set(kv.first, JsonValue::number(kv.second));
    j.set("counters", std::move(counters));

    JsonValue validation = JsonValue::array();
    for (const ValidationRow &row : rec.validation) {
        JsonValue e = JsonValue::object();
        e.set("name", JsonValue::string(row.name));
        e.set("reference", JsonValue::number(row.reference));
        e.set("predicted", JsonValue::number(row.predicted));
        validation.push(std::move(e));
    }
    j.set("validation", std::move(validation));

    JsonValue attrs = JsonValue::object();
    for (const auto &kv : rec.attrs)
        attrs.set(kv.first, JsonValue::string(kv.second));
    j.set("attrs", std::move(attrs));
    return j;
}

RunRecord
recordFromJson(const JsonValue &j)
{
    checkConfig(j.isObject(), "RunRecord: document is not an object");
    RunRecord rec;
    rec.schemaVersion =
        static_cast<int>(j.at("schema_version").asInt());
    checkConfig(rec.schemaVersion >= 1 &&
                    rec.schemaVersion <= kSchemaVersion,
                "RunRecord: schema_version " +
                    std::to_string(rec.schemaVersion) +
                    " not supported by this build (max " +
                    std::to_string(kSchemaVersion) + ")");
    const JsonValue &tool = j.at("tool");
    rec.toolVersion = tool.getString("version", "");
    rec.gitSha = tool.getString("git_sha", "");
    rec.kind = j.getString("kind", "");
    rec.label = j.getString("label", "");
    rec.fingerprint = j.getString("fingerprint", "");
    rec.wallSeconds = numberAt(j, "wall_seconds", 0.0);
    rec.threads = static_cast<int>(j.getInt("threads", 1));
    if (j.has("config"))
        rec.config = j.at("config");

    if (j.has("metrics"))
        for (const auto &kv : j.at("metrics").asObject())
            rec.metrics.emplace_back(kv.first, numberOf(kv.second));

    if (j.has("kernels"))
        for (const JsonValue &e : j.at("kernels").asArray()) {
            KernelStat k;
            k.key = e.at("key").asString();
            k.category = e.getString("category", "");
            k.count = e.getInt("count", 0);
            k.time = numberAt(e, "time", 0.0);
            k.flops = numberAt(e, "flops", 0.0);
            k.dramBytes = numberAt(e, "dram_bytes", 0.0);
            k.overhead = numberAt(e, "overhead", 0.0);
            k.bound = e.getString("bound", "");
            rec.kernels.push_back(std::move(k));
        }

    if (j.has("counters"))
        for (const auto &kv : j.at("counters").asObject())
            rec.counters[kv.first] = numberOf(kv.second);

    if (j.has("validation"))
        for (const JsonValue &e : j.at("validation").asArray()) {
            ValidationRow row;
            row.name = e.at("name").asString();
            row.reference = numberAt(e, "reference", 0.0);
            row.predicted = numberAt(e, "predicted", 0.0);
            rec.validation.push_back(std::move(row));
        }

    if (j.has("attrs"))
        for (const auto &kv : j.at("attrs").asObject())
            rec.attrs.emplace_back(kv.first, kv.second.asString());
    return rec;
}

void
writeRunRecord(const std::string &path, const RunRecord &rec)
{
    std::ofstream f(path);
    checkConfig(f.good(), "cannot write RunRecord file " + path);
    f << toJson(rec).dump(2) << "\n";
    checkConfig(f.good(), "error writing RunRecord file " + path);
}

RunRecord
loadRunRecord(const std::string &path)
{
    std::ifstream in(path);
    checkConfig(in.good(), "cannot open RunRecord file " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    return recordFromJson(JsonValue::parse(ss.str()));
}

RunRecord
recordTraining(const TransformerConfig &model, const System &sys,
               const ParallelConfig &par, long long global_batch,
               TrainingOptions opts, const std::string &label)
{
    RunRecord rec = beginRecord(
        "training", label,
        config::toJson(Run{.model = model, .sys = sys, .par = par,
                           .batch = global_batch, .training = opts}));
    rec.threads = resolveThreads();

    // The recorder reads kernel aggregates and counters straight off
    // the evaluated plan; no trace session is involved.
    opts.trace = nullptr;
    clock::time_point t0 = clock::now();
    plan::TrainingRun run = plan::runTraining(
        model, sys, par, global_batch, opts, {.detail = true});
    rec.wallSeconds = secondsSince(t0);
    const TrainingReport &rep = run.report;

    const TrainingBreakdown &t = rep.time;
    rec.setMetric("time/total", rep.timePerBatch);
    rec.setMetric("time/compute", t.compute());
    rec.setMetric("time/network", t.communication());
    rec.setMetric("time/other", t.other());
    rec.setMetric("time/forward", t.forward);
    rec.setMetric("time/backward", t.backward);
    rec.setMetric("time/recompute", t.recompute);
    rec.setMetric("time/embedding", t.embedding);
    rec.setMetric("time/tp-comm", t.tpComm);
    rec.setMetric("time/cp-comm", t.cpComm);
    rec.setMetric("time/ep-comm", t.epComm);
    rec.setMetric("time/pp-comm", t.ppComm);
    rec.setMetric("time/dp-comm", t.dpComm);
    rec.setMetric("time/bubble", t.bubble);
    rec.setMetric("time/optimizer", t.optimizer);
    rec.setMetric("mfu", rep.mfu);
    rec.setMetric("model-flops", rep.modelFlops);
    rec.setMetric("microbatches", double(rep.microbatches));
    rec.setMetric("bubble-fraction", rep.bubbleFraction);
    rec.setMetric("memory/total", rep.memory.total());
    rec.setMetric("memory/weights", rep.memory.weights);
    rec.setMetric("memory/gradients", rep.memory.gradients);
    rec.setMetric("memory/optimizer", rep.memory.optimizer);
    rec.setMetric("memory/activations", rep.memory.activations);

    rec.kernels = plan::kernelAggregates(run.plan);
    for (const auto &kv : run.plan.plan.counters)
        rec.counters[kv.first] = kv.second;
    rec.counters["train/time-per-batch-s"] = rep.timePerBatch;
    rec.counters["train/mfu"] = rep.mfu;
    return rec;
}

RunRecord
recordInference(const TransformerConfig &model, const System &sys,
                InferenceOptions opts, const std::string &label)
{
    RunRecord rec = beginRecord(
        "inference", label,
        config::toJson(Run{.model = model, .sys = sys, .infer = true,
                           .inference = opts}));
    rec.threads = resolveThreads();

    // The recorder reads kernel aggregates and counters straight off
    // the evaluated plan; no trace session is involved.
    opts.trace = nullptr;
    clock::time_point t0 = clock::now();
    plan::InferenceRun run =
        plan::runInference(model, sys, opts, {.detail = true});
    rec.wallSeconds = secondsSince(t0);
    const InferenceReport &rep = run.report;

    auto phase = [&rec](const std::string &prefix,
                        const PhaseReport &p) {
        rec.setMetric(prefix + "/time", p.time);
        rec.setMetric(prefix + "/gemm-compute-bound",
                      p.computeBoundGemmTime);
        rec.setMetric(prefix + "/gemm-memory-bound",
                      p.memoryBoundGemmTime);
        rec.setMetric(prefix + "/other-kernels", p.otherKernelTime);
        rec.setMetric(prefix + "/comm", p.commTime);
        rec.setMetric(prefix + "/overhead", p.overheadTime);
        rec.setMetric(prefix + "/memory-time", p.memoryTime);
    };
    rec.setMetric("time/total", rep.totalLatency);
    rec.setMetric("time/compute", rep.prefill.computeBoundGemmTime +
                                      rep.prefill.memoryBoundGemmTime +
                                      rep.prefill.otherKernelTime +
                                      rep.decode.computeBoundGemmTime +
                                      rep.decode.memoryBoundGemmTime +
                                      rep.decode.otherKernelTime);
    rec.setMetric("time/network",
                  rep.prefill.commTime + rep.decode.commTime);
    phase("prefill", rep.prefill);
    phase("decode", rep.decode);
    rec.setMetric("memory/kv-cache", rep.kvCacheBytes);
    rec.setMetric("memory/weights", rep.weightBytes);
    rec.setMetric("memory/fits", rep.fitsDeviceMemory ? 1.0 : 0.0);

    rec.kernels = plan::kernelAggregates(run.plan);
    for (const auto &kv : run.plan.plan.counters)
        rec.counters[kv.first] = kv.second;
    return rec;
}

RunRecord
recordPlanner(const TransformerConfig &model, const System &sys,
              long long global_batch, TrainingPlannerOptions opts,
              const std::string &label)
{
    JsonValue config = JsonValue::object();
    config.set("model", config::toJson(model));
    config.set("system", config::toJson(sys));
    config.set("batch", JsonValue::number(double(global_batch)));
    // The sweep sets recompute and the ZeRO stage per candidate; the
    // searched ones are in the planner lists.
    const JsonValue run_training = config::toJson(opts.training);
    JsonValue training = JsonValue::object();
    for (const auto &kv : run_training.asObject())
        if (kv.first != "recompute" && kv.first != "zeroStage")
            training.set(kv.first, kv.second);
    config.set("training", std::move(training));
    config.set("planner", config::toJson(opts));
    RunRecord rec = beginRecord("planner", label, std::move(config));
    rec.threads = resolveThreads(opts.threads);

    TraceSession session;
    opts.trace = &session;
    clock::time_point t0 = clock::now();
    std::vector<TrainingPlan> plans =
        planTraining(model, sys, global_batch, opts);
    rec.wallSeconds = secondsSince(t0);

    rec.setMetric("plans/found", double(plans.size()));
    if (!plans.empty()) {
        const TrainingPlan &best = plans.front();
        rec.setMetric("best/time-per-batch",
                      best.report.timePerBatch);
        rec.setMetric("best/mfu", best.report.mfu);
        rec.setMetric("best/memory-total",
                      best.report.memory.total());
        rec.setAttr("best/mapping", best.parallel.label());
        rec.setAttr("best/schedule",
                    scheduleName(best.parallel.schedule));
        rec.setAttr("best/recompute",
                    recomputeName(best.options.recompute));
        rec.setAttr("best/zero",
                    std::to_string(best.options.memory.zeroStage));
    }
    rec.counters = session.counters();
    return rec;
}

RunRecord
recordDse(const TechConfig &tech, const DeviceObjective &objective,
          DseOptions opts, const JsonValue &objective_config,
          const std::string &label)
{
    JsonValue config = JsonValue::object();
    config.set("node", JsonValue::string(tech.node.name));
    JsonValue dram = JsonValue::object();
    dram.set("name", JsonValue::string(tech.dram.name));
    dram.set("bandwidth", JsonValue::number(tech.dram.bandwidth));
    dram.set("capacity", JsonValue::number(tech.dram.capacity));
    dram.set("energyPerByte", JsonValue::number(tech.dram.energyPerByte));
    config.set("dram", std::move(dram));
    config.set("areaBudget", JsonValue::number(tech.areaBudget));
    config.set("powerBudget", JsonValue::number(tech.powerBudget));
    config.set("gridSteps", JsonValue::number(double(opts.gridSteps)));
    config.set("refineRounds",
               JsonValue::number(double(opts.refineRounds)));
    config.set("objective", objective_config);
    RunRecord rec = beginRecord("dse", label, std::move(config));
    rec.threads = resolveThreads(opts.threads);

    TraceSession session;
    opts.trace = &session;
    clock::time_point t0 = clock::now();
    DseResult r = optimizeAllocation(tech, objective, opts);
    rec.wallSeconds = secondsSince(t0);

    rec.setMetric("objective", r.objective);
    rec.setMetric("evaluations", double(r.evaluations));
    rec.setMetric("allocation/compute-area-fraction",
                  r.allocation.computeAreaFraction);
    rec.setMetric("allocation/compute-power-fraction",
                  r.allocation.computePowerFraction);
    rec.setMetric("device/fp16-matrix-flops",
                  r.device.matrixFlops(Precision::FP16));
    rec.setMetric("device/l2-capacity",
                  r.device.level("L2").capacity);
    rec.counters = session.counters();
    return rec;
}

RunRecord
beginBenchRecord(const std::string &label, JsonValue config)
{
    return beginRecord("bench", label, std::move(config));
}

} // namespace report
} // namespace optimus
