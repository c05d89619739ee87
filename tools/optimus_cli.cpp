/**
 * @file
 * Command-line front end to the performance model.
 *
 * Subcommands:
 *   train    predict training time/memory for a model+system+mapping
 *   infer    predict inference latency
 *   memory   per-device training memory breakdown per recompute mode
 *   lint     static-check a config without evaluating it
 *   presets  list built-in device/system/model presets
 *
 * Inputs come from flags (preset names + mapping knobs) or from a
 * JSON config file (the first positional operand, or --config FILE)
 * whose members are the objects accepted by config/serialize.h; a
 * member present in the file overrides the matching flags. Add
 * --json to emit the report as JSON instead of text.
 *
 * Examples:
 *   optimus_cli train --model gpt-175b --system dgx-a100 --nodes 8 \
 *       --batch 64 --tp 8 --pp 8 --sp --recompute selective
 *   optimus_cli infer --model llama2-13b --system dgx-a100 --tp 1
 *   optimus_cli memory --model gpt-530b --tp 8 --pp 35 --batch 280
 */

#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/optimus.h"

using namespace optimus;

namespace {

using Args = Flags;

/** The config file: the first positional operand, else --config. */
std::string
configPath(const Args &args)
{
    return args.positionals().empty() ? args.get("config", "")
                                      : args.positionals().front();
}

/** The parsed config file, or an empty object when none is given. */
JsonValue
loadConfig(const Args &args)
{
    const std::string path = configPath(args);
    if (path.empty())
        return JsonValue::object();
    std::ifstream in(path);
    checkConfig(in.good(), "cannot open config file " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    return JsonValue::parse(ss.str());
}

TransformerConfig
resolveModel(const Args &args, const JsonValue &cfg)
{
    if (cfg.isObject() && cfg.has("model"))
        return config::modelFromJson(cfg.at("model"));
    return config::modelPreset(args.get("model", "gpt-175b"));
}

System
resolveSystem(const Args &args, const JsonValue &cfg)
{
    if (cfg.isObject() && cfg.has("system"))
        return config::systemFromJson(cfg.at("system"));
    return config::systemPreset(
        args.get("system", "dgx-a100"),
        static_cast<int>(args.getInt("nodes", 1)));
}

ParallelConfig
resolveParallel(const Args &args, const JsonValue &cfg)
{
    if (cfg.isObject() && cfg.has("parallel"))
        return config::parallelFromJson(cfg.at("parallel"));
    ParallelConfig par;
    par.dataParallel = args.getInt("dp", 1);
    par.tensorParallel = args.getInt("tp", 1);
    par.pipelineParallel = args.getInt("pp", 1);
    par.sequenceParallel = args.has("sp");
    par.microbatchSize = args.getInt("microbatch", 1);
    par.interleavedStages = args.getInt("interleave", 1);
    if (par.interleavedStages > 1)
        par.schedule = PipelineSchedule::Interleaved1F1B;
    return par;
}

/**
 * resolveParallel for an evaluation on @p sys: when the user gave only
 * TP/PP, the data-parallel degree fills the system.
 */
ParallelConfig
resolveTrainingParallel(const Args &args, const JsonValue &cfg,
                        const System &sys)
{
    ParallelConfig par = resolveParallel(args, cfg);
    if (!args.has("dp") && !(cfg.isObject() && cfg.has("parallel"))) {
        long long rest = par.tensorParallel * par.pipelineParallel;
        if (sys.totalDevices() % rest == 0)
            par.dataParallel = sys.totalDevices() / rest;
    }
    return par;
}

Recompute
resolveRecompute(const Args &args)
{
    std::string name = args.get("recompute", "full");
    if (name == "none")
        return Recompute::None;
    if (name == "selective")
        return Recompute::Selective;
    if (name == "full")
        return Recompute::Full;
    throw ConfigError("unknown --recompute value: " + name);
}

TrainingOptions
resolveTrainingOptions(const Args &args, const JsonValue &cfg)
{
    if (cfg.isObject() && cfg.has("training"))
        return config::trainingOptionsFromJson(cfg.at("training"));
    TrainingOptions opts;
    opts.recompute = resolveRecompute(args);
    opts.seqLength = args.getInt("seq", 2048);
    opts.precision = parsePrecision(args.get("precision", "fp16"));
    opts.flashAttention = args.has("flash-attention");
    opts.memory.flashAttention = opts.flashAttention;
    opts.memory.zeroStage = static_cast<int>(args.getInt("zero", 0));
    return opts;
}

InferenceOptions
resolveInferenceOptions(const Args &args, const JsonValue &cfg)
{
    if (cfg.isObject() && cfg.has("inference"))
        return config::inferenceOptionsFromJson(cfg.at("inference"));
    InferenceOptions opts;
    opts.tensorParallel = args.getInt("tp", 1);
    opts.pipelineParallel = args.getInt("pp", 1);
    opts.batch = args.getInt("batch", 1);
    opts.promptLength = args.getInt("prompt", 200);
    opts.generateLength = args.getInt("generate", 200);
    opts.precision = parsePrecision(args.get("precision", "fp16"));
    opts.flashAttention = args.has("flash-attention");
    return opts;
}

int
cmdTrain(const Args &args)
{
    JsonValue cfg = loadConfig(args);
    TransformerConfig model = resolveModel(args, cfg);
    System sys = resolveSystem(args, cfg);
    ParallelConfig par = resolveTrainingParallel(args, cfg, sys);
    long long batch = args.getInt("batch", 64);

    TrainingOptions opts = resolveTrainingOptions(args, cfg);

    TrainingReport rep = evaluateTraining(model, sys, par, batch,
                                          opts);

    if (args.has("json")) {
        std::cout << config::toJson(rep).dump(2) << "\n";
        return 0;
    }

    std::cout << model.name << " on " << sys.totalDevices() << "x "
              << sys.device.name << " (" << par.label()
              << ", batch " << batch << ", "
              << recomputeName(opts.recompute) << " recompute)\n\n"
              << "  time/batch : " << formatTime(rep.timePerBatch)
              << "\n"
              << "  throughput : "
              << double(batch) * opts.seqLength / rep.timePerBatch
              << " tokens/s\n"
              << "  MFU        : " << rep.mfu * 100.0 << " %\n"
              << "  compute    : " << formatTime(rep.time.compute())
              << "\n"
              << "  comm       : "
              << formatTime(rep.time.communication()) << "\n"
              << "  other      : " << formatTime(rep.time.other())
              << "\n"
              << "  memory/GPU : " << formatBytes(rep.memory.total())
              << (rep.memory.total() <= sys.device.dram().capacity
                      ? " (fits)"
                      : " (OVERFLOWS device memory)")
              << "\n";
    return 0;
}

int
cmdInfer(const Args &args)
{
    JsonValue cfg = loadConfig(args);
    TransformerConfig model = resolveModel(args, cfg);
    System sys = resolveSystem(args, cfg);

    InferenceOptions opts = resolveInferenceOptions(args, cfg);

    InferenceReport rep = evaluateInference(model, sys, opts);

    if (args.has("json")) {
        std::cout << config::toJson(rep).dump(2) << "\n";
        return 0;
    }

    double tokens = double(opts.batch) * opts.generateLength;
    std::cout << model.name << " on TP" << opts.tensorParallel << " "
              << sys.device.name << " (batch " << opts.batch << ", "
              << opts.promptLength << "+" << opts.generateLength
              << " tokens)\n\n"
              << "  total latency : " << formatTime(rep.totalLatency)
              << "\n"
              << "  prefill       : " << formatTime(rep.prefill.time)
              << "\n"
              << "  decode        : " << formatTime(rep.decode.time)
              << "  (" << rep.decode.time / tokens * 1e3 *
                             double(opts.batch)
              << " ms/token)\n"
              << "  decode comm   : "
              << formatTime(rep.decode.commTime) << "\n"
              << "  throughput    : " << tokens / rep.totalLatency
              << " tokens/s\n"
              << "  KV cache      : " << formatBytes(rep.kvCacheBytes)
              << ", weights " << formatBytes(rep.weightBytes)
              << (rep.fitsDeviceMemory ? " (fits)" : " (OVERFLOWS)")
              << "\n";
    return 0;
}

int
cmdServe(const Args &args)
{
    JsonValue cfg = loadConfig(args);
    TransformerConfig model = resolveModel(args, cfg);
    System sys = resolveSystem(args, cfg);

    // Serving defaults, then the config's inference section, then
    // the flags.
    ServingOptions opts;
    if (cfg.isObject() && cfg.has("inference")) {
        const InferenceOptions io = resolveInferenceOptions(args, cfg);
        opts.tensorParallel = io.tensorParallel;
        opts.promptLength = io.promptLength;
        opts.generateLength = io.generateLength;
        opts.precision = io.precision;
        opts.kvPrecision = io.kvPrecision;
    }
    opts.tensorParallel = args.getInt("tp", opts.tensorParallel);
    opts.promptLength = args.getInt("prompt", opts.promptLength);
    opts.generateLength = args.getInt("generate", opts.generateLength);
    if (args.has("precision"))
        opts.precision = parsePrecision(args.get("precision"));

    Table out({"Batch", "tok/s", "req/s", "ms/token", "TTFT (ms)",
               "fits", "$/Mtok"});
    const long long max_batch = args.getInt("max-batch", 128);
    checkPositive(max_batch, "batch limit");
    std::vector<long long> batches;
    for (long long b = 1; b <= max_batch; b *= 2)
        batches.push_back(b);
    const std::vector<ServingPoint> points =
        servingSweep(model, sys, opts, batches);

    ServingCostModel cost;
    const ServingPoint *best = nullptr;
    bool fitting = true;
    for (const ServingPoint &pt : points) {
        out.beginRow()
            .cell(pt.batch)
            .cell(pt.tokensPerSecond, 0)
            .cell(pt.requestsPerSecond, 2)
            .cell(pt.interTokenLatency * 1e3, 2)
            .cell(pt.timeToFirstToken * 1e3, 1)
            .cell(pt.fits ? "yes" : "NO")
            .cell(costPerMillionTokens(sys, opts, pt, cost), 2);
        out.endRow();
        // The best fitting batch: the largest throughput before the
        // first batch that overflows device memory.
        fitting = fitting && pt.fits;
        if (fitting &&
            (best == nullptr || pt.tokensPerSecond > best->tokensPerSecond))
            best = &pt;
    }
    std::cout << model.name << " serving on TP" << opts.tensorParallel
              << " " << sys.device.name << " ("
              << opts.promptLength << "+" << opts.generateLength
              << " tokens)\n\n";
    out.print(std::cout);

    checkConfig(best != nullptr,
                "model does not fit the device at batch 1");
    std::cout << "\nbest fitting batch: " << best->batch << " ("
              << best->tokensPerSecond << " tok/s)\n";
    return 0;
}

int
cmdSensitivity(const Args &args)
{
    JsonValue cfg = loadConfig(args);
    TransformerConfig model = resolveModel(args, cfg);
    System sys = resolveSystem(args, cfg);

    std::function<double(const System &)> objective;
    std::string label;
    if (args.get("mode", "train") == "infer") {
        InferenceOptions opts;
        opts.tensorParallel = args.getInt("tp", 1);
        opts.batch = args.getInt("batch", 1);
        objective = [=](const System &s) {
            return evaluateInference(model, s, opts).totalLatency;
        };
        label = "inference latency";
    } else {
        ParallelConfig par = resolveParallel(args, cfg);
        long long batch = args.getInt("batch", 64);
        TrainingOptions opts;
        opts.recompute = resolveRecompute(args);
        objective = [=](const System &s) {
            return evaluateTraining(model, s, par, batch, opts)
                .timePerBatch;
        };
        label = "training time per batch";
    }

    std::vector<Sensitivity> rows = analyzeSensitivity(
        sys, objective,
        static_cast<int>(args.getInt("threads", 0)));
    std::cout << model.name << " on " << sys.device.name
              << ": elasticity of " << label
              << " per resource (-1 = fully bound)\n\n";
    sensitivityTable(rows).print(std::cout);
    return 0;
}

int
cmdPlan(const Args &args)
{
    JsonValue cfg = loadConfig(args);
    TransformerConfig model = resolveModel(args, cfg);
    System sys = resolveSystem(args, cfg);
    long long batch = args.getInt("batch", 64);

    TrainingPlannerOptions opts;
    opts.seqLength = args.getInt("seq", 2048);
    opts.precision = parsePrecision(args.get("precision", "fp16"));
    opts.flashAttention = args.has("flash-attention");
    opts.keep = static_cast<size_t>(args.getInt("top", 8));
    opts.threads = static_cast<int>(args.getInt("threads", 0));
    if (args.has("zero"))
        opts.zeroStages = {0,
                           static_cast<int>(args.getInt("zero", 1))};

    std::vector<TrainingPlan> plans =
        planTraining(model, sys, batch, opts);
    if (plans.empty()) {
        std::cout << "no parallelization of " << model.name
                  << " fits " << sys.device.name
                  << " memory at batch " << batch << "\n";
        return 1;
    }

    Table out({"DP-TP-PP-SP", "Schedule", "Recompute", "ZeRO",
               "t/batch (s)", "MFU (%)", "Mem/GPU (GiB)"});
    for (const TrainingPlan &p : plans) {
        out.beginRow()
            .cell(p.parallel.label())
            .cell(p.parallel.interleavedStages > 1
                      ? "interleaved x" +
                            std::to_string(
                                p.parallel.interleavedStages)
                      : scheduleName(p.parallel.schedule))
            .cell(recomputeName(p.options.recompute))
            .cell(static_cast<long long>(p.options.memory.zeroStage))
            .cell(p.report.timePerBatch, 2)
            .cell(p.report.mfu * 100.0, 1)
            .cell(p.report.memory.total() / GiB, 1);
        out.endRow();
    }
    std::cout << model.name << " on " << sys.totalDevices() << "x "
              << sys.device.name << ", batch " << batch
              << " - ranked plans:\n\n";
    out.print(std::cout);
    return 0;
}

int
cmdMemory(const Args &args)
{
    JsonValue cfg = loadConfig(args);
    TransformerConfig model = resolveModel(args, cfg);
    ParallelConfig par = resolveParallel(args, cfg);
    long long batch = args.getInt("batch", 64);
    long long seq = args.getInt("seq", 2048);

    Table out({"Recompute", "Weights", "Grads", "Optimizer",
               "Activations", "Total (GiB)"});
    for (Recompute r : {Recompute::None, Recompute::Selective,
                        Recompute::Full}) {
        MemoryOptions mopts;
        mopts.zeroStage = static_cast<int>(args.getInt("zero", 0));
        TrainingMemory mem =
            trainingMemoryPerDevice(model, par, batch, seq, r, mopts);
        out.beginRow()
            .cell(recomputeName(r))
            .cell(mem.weights / GiB, 2)
            .cell(mem.gradients / GiB, 2)
            .cell(mem.optimizer / GiB, 2)
            .cell(mem.activations / GiB, 2)
            .cell(mem.total() / GiB, 2);
        out.endRow();
    }
    std::cout << model.name << ", " << par.label() << ", batch "
              << batch << ", seq " << seq << " (GiB per device)\n\n";
    out.print(std::cout);
    return 0;
}

int
cmdLint(const Args &args)
{
    const std::string path = configPath(args);
    checkConfig(!path.empty(),
                "lint needs a config file: optimus_cli lint "
                "<config.json>");
    JsonValue cfg = loadConfig(args);

    lint::LintReport report;
    try {
        TransformerConfig model = resolveModel(args, cfg);
        System sys = resolveSystem(args, cfg);
        if (cfg.isObject() && cfg.has("inference")) {
            InferenceOptions opts =
                config::inferenceOptionsFromJson(cfg.at("inference"));
            report = lint::lintInference(model, sys, opts);
        } else {
            ParallelConfig par = resolveParallel(args, cfg);
            long long batch = args.getInt("batch", 64);
            TrainingOptions opts;
            if (cfg.isObject() && cfg.has("training"))
                opts = config::trainingOptionsFromJson(
                    cfg.at("training"));
            report = lint::lintTraining(model, sys, par, batch, opts);
        }
    } catch (const LintError &e) {
        // A deserializer rejected a component outright; its report is
        // still the aggregated list for that component.
        report = e.report();
    }

    if (args.has("json")) {
        std::cout << config::toJson(report).dump(2) << "\n";
        return report.hasErrors() ? 1 : 0;
    }

    if (report.empty()) {
        std::cout << path << ": no diagnostics\n";
        return 0;
    }
    lint::diagnosticsTable(report).print(std::cout);
    std::cout << "\n" << path << ": " << report.summary() << "\n";
    return report.hasErrors() ? 1 : 0;
}

int
cmdTrace(const Args &args)
{
    JsonValue cfg = loadConfig(args);

    TransformerConfig model = resolveModel(args, cfg);
    System sys = resolveSystem(args, cfg);
    bool infer = (cfg.isObject() && cfg.has("inference")) ||
                 args.get("mode", "train") == "infer";

    TraceSession session;
    double model_total = 0.0;
    std::string what;
    if (infer) {
        InferenceOptions opts = resolveInferenceOptions(args, cfg);
        lint::LintReport lrep = lint::lintInference(model, sys, opts);
        session.counterAdd("lint/diagnostics",
                           double(lrep.diagnostics().size()));
        session.counterAdd("lint/errors", double(lrep.errorCount()));
        session.counterAdd("lint/warnings",
                           double(lrep.warningCount()));
        opts.trace = &session;
        InferenceReport rep = evaluateInference(model, sys, opts);
        model_total = rep.totalLatency;
        what = "inference latency";
    } else {
        ParallelConfig par = resolveTrainingParallel(args, cfg, sys);
        long long batch = args.getInt("batch", 64);
        TrainingOptions opts = resolveTrainingOptions(args, cfg);
        lint::LintReport lrep =
            lint::lintTraining(model, sys, par, batch, opts);
        session.counterAdd("lint/diagnostics",
                           double(lrep.diagnostics().size()));
        session.counterAdd("lint/errors", double(lrep.errorCount()));
        session.counterAdd("lint/warnings",
                           double(lrep.warningCount()));
        opts.trace = &session;
        TrainingReport rep =
            evaluateTraining(model, sys, par, batch, opts);
        model_total = rep.timePerBatch;
        what = "training time per batch";
    }

    // Surface the exec/tile-cache statistics as trace counters so
    // sweep tooling reads thread counts and hit rates straight from
    // the export (--threads is accepted for CLI uniformity; a
    // single-point evaluation itself runs serially).
    TileCacheStats tstats = tileCacheStats();
    session.counterSet("roofline/tile-cache-hits",
                       double(tstats.hits));
    session.counterSet("roofline/tile-cache-misses",
                       double(tstats.misses));
    session.counterSet("roofline/tile-cache-hit-rate",
                       tstats.hitRate());
    session.counterSet(
        "exec/threads",
        double(resolveThreads(
            static_cast<int>(args.getInt("threads", 0)))));

    // The trace is a decomposition of the model: span sums per
    // category (kernel-detail spans excluded) must reproduce the
    // aggregate report.
    double trace_total = 0.0;
    for (const auto &kv : session.categoryTotals())
        if (kv.first != "kernel")
            trace_total += kv.second;

    std::string out = args.get("out", "trace.json");
    {
        std::ofstream f(out);
        checkConfig(f.good(), "cannot write trace file " + out);
        f << chromeTraceJson(session).dump() << "\n";
    }
    std::cout << model.name << " on " << sys.device.name << ", "
              << what << " " << formatTime(model_total) << "\n\n"
              << summaryText(session) << "\n"
              << "trace span total " << trace_total
              << " s vs model total " << model_total << " s (delta "
              << trace_total - model_total << " s)\n"
              << "wrote " << out
              << " (open in https://ui.perfetto.dev or "
                 "chrome://tracing)\n";
    if (args.has("csv")) {
        std::string csv_path = args.get("csv", "kernels.csv");
        std::ofstream c(csv_path);
        checkConfig(c.good(), "cannot write csv file " + csv_path);
        c << kernelCsv(session);
        std::cout << "wrote " << csv_path << "\n";
    }
    return 0;
}

int
cmdKernels(const Args &args)
{
    JsonValue cfg = loadConfig(args);

    TransformerConfig model = resolveModel(args, cfg);
    System sys = resolveSystem(args, cfg);
    bool infer = (cfg.isObject() && cfg.has("inference")) ||
                 args.get("mode", "train") == "infer";

    plan::EvaluatedPlan ep;
    double model_total = 0.0;
    std::string what;
    if (infer) {
        InferenceOptions opts = resolveInferenceOptions(args, cfg);
        plan::InferenceRun run = plan::runInference(model, sys, opts);
        ep = std::move(run.plan);
        model_total = run.report.totalLatency;
        what = "inference latency";
    } else {
        ParallelConfig par = resolveTrainingParallel(args, cfg, sys);
        long long batch = args.getInt("batch", 64);
        TrainingOptions opts = resolveTrainingOptions(args, cfg);
        plan::TrainingRun run =
            plan::runTraining(model, sys, par, batch, opts);
        ep = std::move(run.plan);
        model_total = run.report.timePerBatch;
        what = "training time per batch";
    }

    // --out redirects whichever representation was selected; the
    // human-readable table defaults to stdout.
    std::ostream *os = &std::cout;
    std::ofstream file;
    if (args.has("out")) {
        std::string out = args.get("out", "kernels.json");
        file.open(out);
        checkConfig(file.good(), "cannot write output file " + out);
        os = &file;
    }

    if (args.has("json")) {
        *os << plan::planJson(ep).dump(2) << "\n";
        return 0;
    }
    if (args.has("csv")) {
        *os << plan::planCsv(ep);
        return 0;
    }

    Table table({"lane", "name", "category", "kind", "count",
                 "total", "detail"});
    double total = 0.0;
    for (const plan::StepSummary &r : plan::summarizePlan(ep)) {
        table.beginRow()
            .cell(r.lane)
            .cell(r.name)
            .cell(r.category)
            .cell(r.kind)
            .cell(r.count)
            .cell(formatTime(r.total))
            .cell(r.detail);
        table.endRow();
        total += r.total;
    }
    *os << model.name << " on " << sys.device.name << ", " << what
        << " " << formatTime(model_total) << "\n\n";
    table.print(*os);
    *os << "\n" << table.rowCount() << " plan steps, span total "
        << formatTime(total) << "\n";
    return 0;
}

DramTech
resolveDramTech(const std::string &name)
{
    if (name == "gddr6")
        return dram::gddr6();
    if (name == "hbm2")
        return dram::hbm2();
    if (name == "hbm2e")
        return dram::hbm2e();
    if (name == "hbm3-26")
        return dram::hbm3_26();
    if (name == "hbm3")
        return dram::hbm3();
    if (name == "hbm3e")
        return dram::hbm3e();
    if (name == "hbm4")
        return dram::hbm4();
    if (name == "hbmx")
        return dram::hbmx();
    throw ConfigError("unknown --dram value: " + name);
}

/** DSE problem resolved from flags, shared by `dse` and `record`. */
struct DseSetup
{
    TechConfig tech;
    DeviceObjective objective;
    std::string label;
    DseOptions dopts;
    /** Canonical description of the objective, for RunRecords. */
    JsonValue objectiveConfig;
};

/** Resolve the DSE problem whose objective is @p mode (train|infer). */
DseSetup
resolveDseSetup(const Args &args, const std::string &mode)
{
    DseSetup s;
    s.tech.node = logicNode(args.get("node", "N5"));
    s.tech.dram = resolveDramTech(args.get("dram", "hbm3"));
    s.tech.areaBudget = args.getNumber("area", s.tech.areaBudget);
    s.tech.powerBudget = args.getNumber("power", s.tech.powerBudget);

    const int gpus = static_cast<int>(args.getInt("gpus-per-node", 8));
    TransformerConfig model = config::modelPreset(args.get(
        "model", mode == "infer" ? "llama2-13b" : "gpt-7b"));
    s.objectiveConfig = JsonValue::object();
    s.objectiveConfig.set("mode", JsonValue::string(mode));
    s.objectiveConfig.set("model", JsonValue::string(model.name));
    s.objectiveConfig.set("gpusPerNode",
                          JsonValue::number(double(gpus)));
    if (mode == "infer") {
        InferenceOptions opts;
        opts.tensorParallel = args.getInt("tp", 1);
        opts.batch = args.getInt("batch", 1);
        opts.promptLength = args.getInt("prompt", 200);
        opts.generateLength = args.getInt("generate", 200);
        s.objective = [=](const Device &dev) {
            System sys = makeSystem(dev, gpus, 1, presets::nvlink4(),
                                    nettech::gdrX8());
            return evaluateInference(model, sys, opts).totalLatency;
        };
        s.label = model.name + " inference latency";
        s.objectiveConfig.set("inference", config::toJson(opts));
    } else if (mode == "train") {
        const int nodes = static_cast<int>(args.getInt("nodes", 16));
        ParallelConfig par;
        par.tensorParallel = args.getInt("tp", 4);
        par.pipelineParallel = args.getInt("pp", 4);
        long long rest = par.tensorParallel * par.pipelineParallel;
        par.dataParallel =
            args.getInt("dp", static_cast<long long>(gpus) * nodes /
                                  rest);
        par.sequenceParallel = par.tensorParallel > 1;
        long long batch = args.getInt("batch", 512);
        TrainingOptions topts;
        topts.recompute = Recompute::Selective;
        topts.seqLength = args.getInt("seq", 2048);
        s.objective = [=](const Device &dev) {
            System sys = makeSystem(dev, gpus, nodes,
                                    presets::nvlink4(),
                                    nettech::gdrX8());
            return evaluateTraining(model, sys, par, batch, topts)
                .timePerBatch;
        };
        s.label = model.name + " training time per batch";
        s.objectiveConfig.set("nodes",
                              JsonValue::number(double(nodes)));
        s.objectiveConfig.set("parallel", config::toJson(par));
        s.objectiveConfig.set("batch",
                              JsonValue::number(double(batch)));
        s.objectiveConfig.set("training", config::toJson(topts));
    } else {
        throw ConfigError("unknown --mode value: " + mode);
    }

    s.dopts.gridSteps =
        static_cast<int>(args.getInt("grid", s.dopts.gridSteps));
    s.dopts.refineRounds =
        static_cast<int>(args.getInt("rounds", s.dopts.refineRounds));
    s.dopts.threads = static_cast<int>(args.getInt("threads", 0));
    return s;
}

int
cmdDse(const Args &args)
{
    DseSetup setup = resolveDseSetup(args, args.get("mode", "train"));
    TechConfig &tech = setup.tech;
    DeviceObjective &objective = setup.objective;
    std::string &label = setup.label;
    DseOptions &dopts = setup.dopts;

    TraceSession session;
    dopts.trace = &session;
    const bool verbose = args.has("verbose");
    if (verbose)
        dopts.onRound = [](const DseRound &r) {
            std::cout << (r.round < 0
                              ? std::string("grid")
                              : "round " + std::to_string(r.round))
                      << ": best " << formatTime(r.bestObjective)
                      << " after " << r.evaluations
                      << " evaluations (step " << r.step << ")\n";
        };

    DseResult r = optimizeAllocation(tech, objective, dopts);
    if (verbose)
        std::cout << "\n";
    const Device &d = r.device;
    std::cout << "DSE at " << tech.node.name << " + "
              << tech.dram.name << " (" << tech.areaBudget
              << " mm^2, " << tech.powerBudget
              << " W), objective: " << label << "\n\n"
              << "  compute area fraction : "
              << r.allocation.computeAreaFraction << "\n"
              << "  compute power fraction: "
              << r.allocation.computePowerFraction << "\n"
              << "  fp16 matrix throughput: "
              << formatFlops(d.matrixFlops(Precision::FP16)) << "\n"
              << "  L2 capacity           : "
              << formatBytes(d.level("L2").capacity) << "\n"
              << "  objective             : " << formatTime(r.objective)
              << "\n"
              << "  evaluations           : " << r.evaluations
              << " (" << session.counter("dse/pruned")
              << " pruned by lint)\n";
    if (verbose) {
        std::cout << "\n";
        counterSummaryTable(session).print(std::cout);
    }
    return 0;
}

int
cmdRecord(const Args &args)
{
    JsonValue cfg = loadConfig(args);

    std::string mode = args.get(
        "mode", (cfg.isObject() && cfg.has("inference")) ? "infer"
                                                         : "train");
    report::RunRecord rec;
    if (mode == "infer") {
        TransformerConfig model = resolveModel(args, cfg);
        System sys = resolveSystem(args, cfg);
        InferenceOptions opts = resolveInferenceOptions(args, cfg);
        rec = report::recordInference(
            model, sys, opts,
            args.get("label", model.name + " inference"));
    } else if (mode == "train") {
        TransformerConfig model = resolveModel(args, cfg);
        System sys = resolveSystem(args, cfg);
        ParallelConfig par = resolveTrainingParallel(args, cfg, sys);
        long long batch = args.getInt("batch", 64);
        TrainingOptions opts = resolveTrainingOptions(args, cfg);
        rec = report::recordTraining(
            model, sys, par, batch, opts,
            args.get("label", model.name + " training"));
    } else if (mode == "plan") {
        TransformerConfig model = resolveModel(args, cfg);
        System sys = resolveSystem(args, cfg);
        long long batch = args.getInt("batch", 64);
        TrainingPlannerOptions opts;
        opts.seqLength = args.getInt("seq", 2048);
        opts.precision =
            parsePrecision(args.get("precision", "fp16"));
        opts.keep = static_cast<size_t>(args.getInt("top", 8));
        opts.threads = static_cast<int>(args.getInt("threads", 0));
        rec = report::recordPlanner(
            model, sys, batch, opts,
            args.get("label", model.name + " planner"));
    } else if (mode == "dse") {
        // record's --mode picks dse itself, so the objective takes
        // dse's default mode.
        DseSetup setup = resolveDseSetup(args, "train");
        rec = report::recordDse(setup.tech, setup.objective,
                                setup.dopts, setup.objectiveConfig,
                                args.get("label", setup.label));
    } else {
        throw ConfigError("unknown --mode value: " + mode);
    }

    std::string out = args.get("out", "run.json");
    report::writeRunRecord(out, rec);
    std::cout << report::versionLine() << "\n"
              << rec.kind << " run '" << rec.label
              << "', config fingerprint " << rec.fingerprint << "\n"
              << rec.metrics.size() << " metrics, "
              << rec.kernels.size() << " kernel aggregates, "
              << rec.counters.size() << " counters ("
              << rec.wallSeconds * 1e3 << " ms wall)\n"
              << "wrote " << out << "\n";
    return 0;
}

int
cmdDiff(const Args &args)
{
    checkConfig(args.positionals().size() == 2,
                "diff needs two run files: optimus_cli diff <a.json> "
                "<b.json> [--check] [--tol-pct N] [--json]");
    report::RunRecord a =
        report::loadRunRecord(args.positionals()[0]);
    report::RunRecord b =
        report::loadRunRecord(args.positionals()[1]);

    report::DiffOptions dopts;
    dopts.tolPct = args.getNumber("tol-pct", dopts.tolPct);
    report::RunDiff diff = report::diffRuns(a, b, dopts);

    if (args.has("json"))
        std::cout << report::toJson(diff).dump(2) << "\n";
    else
        std::cout << report::diffText(diff, a, b, dopts);

    return args.has("check") ? report::checkExitCode(diff) : 0;
}

int
cmdVersion()
{
    std::cout << report::versionLine() << "\n";
    return 0;
}

int
cmdPresets()
{
    std::cout << "Device presets:\n";
    for (const std::string &name : config::devicePresetNames())
        std::cout << "  " << name << "\n";
    std::cout << "System presets (use with --nodes N):\n";
    for (const std::string &name : config::systemPresetNames())
        std::cout << "  " << name << "\n";
    std::cout << "Model presets:\n";
    for (const std::string &name : config::modelPresetNames())
        std::cout << "  " << name << "\n";
    return 0;
}

int
usage()
{
    std::cout <<
        "usage: optimus_cli <command> [<config.json>] [flags]\n"
        "\n"
        "commands:\n"
        "  train    --model M --system S --nodes N --batch B --dp D\n"
        "           --tp T --pp P [--sp] [--recompute none|selective|"
        "full]\n"
        "           [--seq L] [--precision fp16|fp8|fp4] [--zero 0-3]\n"
        "           [--flash-attention] [--microbatch m] "
        "[--interleave v]\n"
        "  infer    --model M --system S [--tp T] [--batch B]\n"
        "           [--prompt P] [--generate G] [--flash-attention]\n"
        "  serve    --model M --system S [--tp T] [--prompt P]\n"
        "           [--generate G] [--max-batch N]\n"
        "  plan     --model M --system S --nodes N --batch B "
        "[--top K]\n"
        "           [--threads N]\n"
        "  sensitivity --model M --system S [--mode train|infer]\n"
        "              [--threads N]\n"
        "              bottleneck attribution per hardware resource\n"
        "  memory   --model M --dp D --tp T --pp P [--sp] "
        "[--batch B]\n"
        "  lint     <config.json> [--batch B] - static-check a config\n"
        "           without evaluating it (exit 1 on errors)\n"
        "  trace    <config.json> [--out trace.json] [--csv FILE]\n"
        "           [--threads N]\n"
        "           record a Perfetto-loadable timeline of the "
        "modeled run\n"
        "  kernels  <config.json> [--json|--csv] [--out FILE]\n"
        "           dump the lowered kernel plan (one row per plan\n"
        "           step: identity, repeat count, time, bound/scope)\n"
        "  dse      [--mode train|infer] [--node N3|N5] [--dram D]\n"
        "           [--area MM2] [--power W] [--grid N] [--rounds R]\n"
        "           [--verbose] [--threads N]\n"
        "           optimize the compute/memory area+power split\n"
        "  record   <config.json> [--mode train|infer|plan|dse]\n"
        "           [--out run.json] [--label NAME]\n"
        "           write a schema-versioned RunRecord ledger entry;\n"
        "           --mode dse takes the dse flags and records the\n"
        "           training objective\n"
        "  diff     <a.json> <b.json> [--check] [--tol-pct N] "
        "[--json]\n"
        "           compare two RunRecords; --check exits 1 on drift\n"
        "           beyond tolerance (default 0.5%)\n"
        "  version  print tool version, RunRecord schema, git SHA\n"
        "  presets  list built-in presets\n"
        "\n"
        "common flags: <config.json> or --config FILE (JSON, read by\n"
        "  every command but dse/diff/version/presets; its members\n"
        "  override the flags above), --json (JSON output),\n"
        "  --threads N (sweep worker threads; 0 = OPTIMUS_THREADS\n"
        "  env, default 1; results are identical at any count)\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args = Flags::parse(argc, argv);
        if (args.command() == "train")
            return cmdTrain(args);
        if (args.command() == "infer")
            return cmdInfer(args);
        if (args.command() == "serve")
            return cmdServe(args);
        if (args.command() == "plan")
            return cmdPlan(args);
        if (args.command() == "sensitivity")
            return cmdSensitivity(args);
        if (args.command() == "memory")
            return cmdMemory(args);
        if (args.command() == "lint")
            return cmdLint(args);
        if (args.command() == "trace")
            return cmdTrace(args);
        if (args.command() == "kernels")
            return cmdKernels(args);
        if (args.command() == "dse")
            return cmdDse(args);
        if (args.command() == "record")
            return cmdRecord(args);
        if (args.command() == "diff")
            return cmdDiff(args);
        if (args.command() == "version" || args.has("version"))
            return cmdVersion();
        if (args.command() == "presets")
            return cmdPresets();
        return usage();
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
