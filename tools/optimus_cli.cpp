/**
 * @file
 * Command-line front end to the performance model; usage() lists the
 * subcommands.
 *
 * Inputs come from flags or from a JSON config file (the first
 * positional operand, or --config FILE) in the run format of
 * config/run.h, each flag standing for a field of it; a member present
 * in the file replaces the flags' member whole. Every command around a
 * training or inference run resolves it through resolveRun and
 * config::runFromJson, which also replays a RunRecord's config. A flag
 * or a config member that no command reads, or a config file that is
 * not a JSON object, is an error. Add --json to emit the report as
 * JSON instead of text.
 *
 * Examples:
 *   optimus_cli train --model gpt-175b --system dgx-a100 --nodes 8 \
 *       --batch 64 --tp 8 --pp 8 --sp --recompute selective
 *   optimus_cli infer --model llama2-13b --system dgx-a100 --tp 1
 *   optimus_cli memory --model gpt-530b --tp 8 --pp 35 --batch 280
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
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

/** The config members some command reads; any other is an error. */
const char *const kMembers[] = {"model",    "system",    "parallel",
                                "batch",    "training",  "inference",
                                "planner"};

/**
 * The parsed config file, or an empty object when none is given. A
 * file whose top level is not an object is a ConfigError, and a
 * member that no command reads is OPT-CFG-025.
 */
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
    JsonValue cfg = JsonValue::parse(ss.str());
    checkConfig(cfg.isObject(),
                "config file " + path + " is not a JSON object");
    config::rejectUnknownFields(cfg, kMembers, "config member");
    return cfg;
}

/**
 * A flag some command reads and, for a run flag, the config field it
 * stands for and how its value is spelled there.
 */
struct Flag
{
    const char *name;
    const char *member = nullptr, *field = nullptr;
    enum { Integer, Text, Switch } spell = Integer;
};

/**
 * Every flag some command reads; any other flag is an error. An absent
 * run flag is an absent field, whose default is the flag's. A training
 * run's --batch is its top-level batch.
 */
const Flag kFlags[] = {
    {"model", "model", "preset", Flag::Text},
    {"system", "system", "preset", Flag::Text},
    {"nodes", "system", "numNodes"},
    {"dp", "parallel", "dataParallel"},
    {"tp", "parallel", "tensorParallel"},
    {"pp", "parallel", "pipelineParallel"},
    {"sp", "parallel", "sequenceParallel", Flag::Switch},
    {"microbatch", "parallel", "microbatchSize"},
    {"interleave", "parallel", "interleavedStages"},
    {"precision", "training", "precision", Flag::Text},
    {"recompute", "training", "recompute", Flag::Text},
    {"seq", "training", "seqLength"},
    {"flash-attention", "training", "flashAttention", Flag::Switch},
    {"zero", "training", "zeroStage"},
    {"precision", "inference", "precision", Flag::Text},
    {"tp", "inference", "tensorParallel"},
    {"pp", "inference", "pipelineParallel"},
    {"batch", "inference", "batch"},
    {"prompt", "inference", "promptLength"},
    {"generate", "inference", "generateLength"},
    {"flash-attention", "inference", "flashAttention", Flag::Switch},
    {"area"}, {"check"}, {"config"}, {"csv"}, {"dram"}, {"grid"},
    {"json"}, {"label"}, {"max-batch"}, {"mode"}, {"node"}, {"out"},
    {"power"}, {"rounds"}, {"threads"}, {"tol-pct"}, {"top"},
    {"verbose"}, {"version"},
};

/** Reject a flag that no command reads (a typo or a removed flag). */
void
checkKnownFlags(const Args &args)
{
    for (const auto &kv : args.all())
        if (std::none_of(std::begin(kFlags), std::end(kFlags),
                         [&](const Flag &f) { return kv.first == f.name; }))
            throw ConfigError("unknown flag --" + kv.first);
}

/**
 * Config member @p name spelled from the flags. A training run's
 * top-level batch is the --batch value, null without the flag.
 */
JsonValue
flagMember(const Args &args, const std::string &name)
{
    if (name == "batch")
        return args.has("batch")
                   ? JsonValue::number(double(args.getInt("batch", 0)))
                   : JsonValue();
    JsonValue member = JsonValue::object();
    if (name == "model" || name == "system")  // the presets' defaults
        member.set("preset", JsonValue::string(name == "model" ? "gpt-175b"
                                                               : "dgx-a100"));
    for (const Flag &f : kFlags)
        if (f.member && name == f.member && args.has(f.name))
            member.set(f.field,
                       f.spell == Flag::Integer
                           ? JsonValue::number(double(args.getInt(f.name, 0)))
                       : f.spell == Flag::Text
                           ? JsonValue::string(args.get(f.name))
                           : JsonValue::boolean(true));
    if (name == "parallel" && args.getInt("interleave", 1) > 1)
        member.set("schedule",
                   JsonValue::string(
                       scheduleName(PipelineSchedule::Interleaved1F1B)));
    return member;
}

/**
 * The one resolution of a run from the config and the flags: each
 * member of the run's mode is the config's when present, whole, else
 * the flags', so a flag is parsed only when it is read.
 */
Run
resolveRun(const Args &args, const JsonValue &cfg, bool infer)
{
    JsonValue json = JsonValue::object();
    for (const char *name :
         infer ? std::vector<const char *>{"model", "system", "inference"}
               : std::vector<const char *>{"model", "system", "parallel",
                                           "batch", "training"}) {
        JsonValue member =
            cfg.has(name) ? cfg.at(name) : flagMember(args, name);
        if (!member.isNull())
            json.set(name, std::move(member));
    }
    Run run = config::runFromJson(json);
    // Given only TP/PP, the data-parallel degree fills the system.
    const long long rest =
        run.par.tensorParallel * run.par.pipelineParallel;
    if (!infer && !args.has("dp") && !cfg.has("parallel") && rest > 0 &&
        run.sys.totalDevices() % rest == 0)
        run.par.dataParallel = run.sys.totalDevices() / rest;
    return run;
}

/** The run of --mode (train|infer), else of the config's mode. */
Run
resolveRun(const Args &args)
{
    const JsonValue cfg = loadConfig(args);
    const std::string mode =
        args.get("mode", cfg.has("inference") ? "infer" : "train");
    checkConfig(mode == "train" || mode == "infer",
                "unknown --mode value: " + mode);
    return resolveRun(args, cfg, mode == "infer");
}

/**
 * The training run of `plan` and `record --mode plan` and the search
 * around it: the config's planner member whole, else ZeRO {0, the
 * run's stage} keeping the --top plans.
 */
std::pair<Run, TrainingPlannerOptions>
resolvePlan(const Args &args)
{
    const JsonValue cfg = loadConfig(args);
    const Run run = resolveRun(args, cfg, false);
    TrainingPlannerOptions opts;
    if (cfg.has("planner")) {
        opts = config::plannerOptionsFromJson(cfg.at("planner"));
    } else {
        if (run.training.memory.zeroStage != 0)
            opts.zeroStages.push_back(run.training.memory.zeroStage);
        opts.keep = static_cast<size_t>(args.getInt("top", 8));
    }
    opts.training = run.training;
    opts.threads = static_cast<int>(args.getInt("threads", 0));
    return {run, opts};
}

int
cmdTrain(const Args &args)
{
    const Run run = resolveRun(args, loadConfig(args), false);
    TrainingReport rep = evaluateTraining(run.model, run.sys, run.par,
                                          run.batch, run.training);

    if (args.has("json")) {
        std::cout << config::toJson(rep).dump(2) << "\n";
        return 0;
    }

    std::cout << run.model.name << " on " << run.sys.totalDevices()
              << "x " << run.sys.device.name << " (" << run.par.label()
              << ", batch " << run.batch << ", "
              << recomputeName(run.training.recompute)
              << " recompute)\n\n"
              << "  time/batch : " << formatTime(rep.timePerBatch)
              << "\n"
              << "  throughput : "
              << double(run.batch) * run.training.seqLength /
                     rep.timePerBatch
              << " tokens/s\n"
              << "  MFU        : " << rep.mfu * 100.0 << " %\n"
              << "  compute    : " << formatTime(rep.time.compute())
              << "\n"
              << "  comm       : "
              << formatTime(rep.time.communication()) << "\n"
              << "  other      : " << formatTime(rep.time.other())
              << "\n"
              << "  memory/GPU : " << formatBytes(rep.memory.total())
              << (rep.memory.total() <= run.sys.device.dram().capacity
                      ? " (fits)"
                      : " (OVERFLOWS device memory)")
              << "\n";
    return 0;
}

int
cmdInfer(const Args &args)
{
    const Run run = resolveRun(args, loadConfig(args), true);
    InferenceReport rep =
        evaluateInference(run.model, run.sys, run.inference);

    if (args.has("json")) {
        std::cout << config::toJson(rep).dump(2) << "\n";
        return 0;
    }

    double tokens =
        double(run.inference.batch) * run.inference.generateLength;
    std::cout << run.model.name << " on TP" << run.inference.tensorParallel
              << " " << run.sys.device.name << " (batch "
              << run.inference.batch << ", " << run.inference.promptLength
              << "+" << run.inference.generateLength << " tokens)\n\n"
              << "  total latency : " << formatTime(rep.totalLatency)
              << "\n"
              << "  prefill       : " << formatTime(rep.prefill.time)
              << "\n"
              << "  decode        : " << formatTime(rep.decode.time)
              << "  (" << rep.decode.time / tokens * 1e3 *
                             double(run.inference.batch)
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
    const Run run = resolveRun(args, loadConfig(args), true);
    // The sweep sets the batch itself, and serving has no pipeline.
    const InferenceOptions &io = run.inference;
    checkConfig(io.pipelineParallel == 1,
                "serve has no pipeline parallelism, pipelineParallel " +
                    std::to_string(io.pipelineParallel) + " given");
    const ServingOptions opts{.precision = io.precision,
                              .tensorParallel = io.tensorParallel,
                              .promptLength = io.promptLength,
                              .generateLength = io.generateLength,
                              .flashAttention = io.flashAttention,
                              .collectiveAlgorithm = io.collectiveAlgorithm,
                              .kvPrecision = io.kvPrecision};

    Table out({"Batch", "tok/s", "req/s", "ms/token", "TTFT (ms)",
               "fits", "$/Mtok"});
    const long long max_batch = args.getInt("max-batch", 128);
    checkPositive(max_batch, "batch limit");
    std::vector<long long> batches;
    for (long long b = 1; b <= max_batch; b *= 2)
        batches.push_back(b);
    const std::vector<ServingPoint> points =
        servingSweep(run.model, run.sys, opts, batches);

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
            .cell(costPerMillionTokens(opts, pt, cost), 2);
        out.endRow();
        // The best fitting batch: the largest throughput before the
        // first batch that overflows device memory.
        fitting = fitting && pt.fits;
        if (fitting &&
            (best == nullptr || pt.tokensPerSecond > best->tokensPerSecond))
            best = &pt;
    }
    std::cout << run.model.name << " serving on TP" << opts.tensorParallel
              << " " << run.sys.device.name << " ("
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
    const Run run = resolveRun(args);
    std::vector<Sensitivity> rows = analyzeSensitivity(
        run.sys, [&run](const System &s) { return runTime(run, s); },
        static_cast<int>(args.getInt("threads", 0)));
    std::cout << run.model.name << " on " << run.sys.device.name
              << ": elasticity of " << objectiveName(run)
              << " per resource (-1 = fully bound)\n\n";
    sensitivityTable(rows).print(std::cout);
    return 0;
}

int
cmdPlan(const Args &args)
{
    const auto [run, opts] = resolvePlan(args);
    std::vector<TrainingPlan> plans =
        planTraining(run.model, run.sys, run.batch, opts);
    if (plans.empty()) {
        std::cout << "no parallelization of " << run.model.name
                  << " fits " << run.sys.device.name
                  << " memory at batch " << run.batch << "\n";
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
    std::cout << run.model.name << " on " << run.sys.totalDevices()
              << "x " << run.sys.device.name << ", batch " << run.batch
              << " - ranked plans:\n\n";
    out.print(std::cout);
    return 0;
}

int
cmdMemory(const Args &args)
{
    Run run = resolveRun(args, loadConfig(args), false);
    const ParallelConfig &par = run.par;
    TrainingOptions &opts = run.training;

    // Gate on the run's device, one TP group per node.
    System shape = run.sys;
    shape.devicesPerNode = int(std::max(1LL, par.tensorParallel));
    shape.numNodes =
        int(std::max(1LL, par.totalDevices() / shape.devicesPerNode));
    lint::enforce(
        lint::lintTrainingGate(run.model, shape, par, run.batch, opts));

    Table out({"Recompute", "Weights", "Grads", "Optimizer",
               "Activations", "Total (GiB)"});
    for (Recompute r : {Recompute::None, Recompute::Selective,
                        Recompute::Full}) {
        opts.recompute = r;
        TrainingMemory mem =
            trainingMemoryPerDevice(run.model, par, run.batch, opts);
        out.beginRow()
            .cell(recomputeName(r))
            .cell(mem.weights / GiB, 2)
            .cell(mem.gradients / GiB, 2)
            .cell(mem.optimizer / GiB, 2)
            .cell(mem.activations / GiB, 2)
            .cell(mem.total() / GiB, 2);
        out.endRow();
    }
    std::cout << run.model.name << ", " << par.label() << ", batch "
              << run.batch << ", seq " << opts.seqLength
              << " (GiB per device)\n\n";
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
    lint::LintReport report;
    try {
        report = lintRun(resolveRun(args));
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
    Run run = resolveRun(args);
    TraceSession session;
    const lint::LintReport lrep = lintRun(run);
    session.counterAdd("lint/diagnostics",
                       double(lrep.diagnostics().size()));
    session.counterAdd("lint/errors", double(lrep.errorCount()));
    session.counterAdd("lint/warnings", double(lrep.warningCount()));
    run.training.trace = run.inference.trace = &session;
    const double model_total = runTime(run, run.sys);

    // Surface the tile-cache statistics as trace counters so sweep
    // tooling reads hit rates straight from the export.
    TileCacheStats tstats = tileCacheStats();
    session.counterSet("roofline/tile-cache-hits",
                       double(tstats.hits));
    session.counterSet("roofline/tile-cache-misses",
                       double(tstats.misses));
    session.counterSet("roofline/tile-cache-hit-rate",
                       tstats.hitRate());

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
    std::cout << run.model.name << " on " << run.sys.device.name << ", "
              << objectiveName(run) << " " << formatTime(model_total)
              << "\n\n"
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
    const Run run = resolveRun(args);
    plan::EvaluatedPlan ep;
    double model_total = 0.0;
    if (run.infer) {
        plan::InferenceRun r =
            plan::runInference(run.model, run.sys, run.inference);
        ep = std::move(r.plan);
        model_total = r.report.totalLatency;
    } else {
        plan::TrainingRun r = plan::runTraining(
            run.model, run.sys, run.par, run.batch, run.training);
        ep = std::move(r.plan);
        model_total = r.report.timePerBatch;
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
    *os << run.model.name << " on " << run.sys.device.name << ", "
        << objectiveName(run) << " " << formatTime(model_total)
        << "\n\n";
    table.print(*os);
    *os << "\n" << table.rowCount() << " plan steps, span total "
        << formatTime(total) << "\n";
    return 0;
}

/** The --dram technologies by name. */
const std::pair<const char *, DramTech (*)()> kDramTechs[] = {
    {"gddr6", dram::gddr6}, {"hbm2", dram::hbm2},
    {"hbm2e", dram::hbm2e}, {"hbm3-26", dram::hbm3_26},
    {"hbm3", dram::hbm3},   {"hbm3e", dram::hbm3e},
    {"hbm4", dram::hbm4},   {"hbmx", dram::hbmx},
};

DramTech
resolveDramTech(const std::string &name)
{
    for (const auto &[tech_name, tech] : kDramTechs)
        if (name == tech_name)
            return tech();
    throw ConfigError("unknown --dram value: " + name);
}

/** The search of `dse` and `record --mode dse`: the tech and knobs. */
std::pair<TechConfig, DseOptions>
resolveDseSetup(const Args &args)
{
    TechConfig tech;
    tech.node = logicNode(args.get("node", "N5"));
    tech.dram = resolveDramTech(args.get("dram", "hbm3"));
    tech.areaBudget = args.getNumber("area", tech.areaBudget);
    tech.powerBudget = args.getNumber("power", tech.powerBudget);
    DseOptions dopts;
    dopts.gridSteps =
        static_cast<int>(args.getInt("grid", dopts.gridSteps));
    dopts.refineRounds =
        static_cast<int>(args.getInt("rounds", dopts.refineRounds));
    dopts.threads = static_cast<int>(args.getInt("threads", 0));
    return {tech, dopts};
}

/** The DSE objective: @p run on its system with the candidate device. */
DeviceObjective
dseObjective(const Run &run)
{
    return [run](const Device &dev) {
        System sys = run.sys;
        sys.device = dev;
        return runTime(run, sys);
    };
}

int
cmdDse(const Args &args)
{
    const Run run = resolveRun(args);
    auto [tech, dopts] = resolveDseSetup(args);

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

    DseResult r = optimizeAllocation(tech, dseObjective(run), dopts);
    if (verbose)
        std::cout << "\n";
    const Device &d = r.device;
    std::cout << "DSE at " << tech.node.name << " + "
              << tech.dram.name << " (" << tech.areaBudget
              << " mm^2, " << tech.powerBudget
              << " W), objective: " << run.model.name << " "
              << objectiveName(run) << "\n\n"
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
    const std::string mode = args.get("mode");
    report::RunRecord rec;
    if (mode == "plan") {
        const auto [run, opts] = resolvePlan(args);
        rec = report::recordPlanner(
            run.model, run.sys, run.batch, opts,
            args.get("label", run.model.name + " planner"));
    } else if (mode == "dse") {
        // --mode names the search, so the config picks the run's mode.
        const JsonValue cfg = loadConfig(args);
        const Run run = resolveRun(args, cfg, cfg.has("inference"));
        const auto [tech, dopts] = resolveDseSetup(args);
        rec = report::recordDse(
            tech, dseObjective(run), dopts, config::toJson(run),
            args.get("label", run.model.name + " " + objectiveName(run)));
    } else {
        const Run run = resolveRun(args);
        rec = run.infer
                  ? report::recordInference(
                        run.model, run.sys, run.inference,
                        args.get("label", run.model.name + " inference"))
                  : report::recordTraining(
                        run.model, run.sys, run.par, run.batch,
                        run.training,
                        args.get("label", run.model.name + " training"));
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

/** The subcommands that read flags, by name. */
const std::pair<const char *, int (*)(const Args &)> kCommands[] = {
    {"train", cmdTrain},     {"infer", cmdInfer},
    {"serve", cmdServe},     {"plan", cmdPlan},
    {"sensitivity", cmdSensitivity}, {"memory", cmdMemory},
    {"lint", cmdLint},       {"trace", cmdTrace},
    {"kernels", cmdKernels}, {"dse", cmdDse},
    {"record", cmdRecord},   {"diff", cmdDiff},
};

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
        "           [--prompt P] [--generate G] [--precision P]\n"
        "           [--flash-attention]\n"
        "  serve    <config.json> plus the infer flags [--max-batch N]\n"
        "           sweeps the batch 1, 2, 4 ... N of the infer run\n"
        "  plan     <config.json> plus the train flags [--top K]\n"
        "           [--threads N]; ranks mappings x recompute x ZeRO\n"
        "           {0, the run's stage} under the run's options\n"
        "  sensitivity <config.json> [--mode train|infer] "
        "[--threads N]\n"
        "           plus the train or infer flags; bottleneck\n"
        "           attribution per hardware resource\n"
        "  memory   <config.json> plus the train flags; the footprint\n"
        "           of the train run per recompute mode\n"
        "  lint     <config.json> [--mode train|infer] plus the train or\n"
        "           infer flags - static-check a config without\n"
        "           evaluating it (exit 1 on errors)\n"
        "  trace    <config.json> [--mode train|infer] [--out trace.json]\n"
        "           [--csv FILE]\n"
        "           record a Perfetto-loadable timeline of the "
        "modeled run\n"
        "  kernels  <config.json> [--mode train|infer] [--json|--csv]\n"
        "           [--out FILE]\n"
        "           dump the lowered kernel plan (one row per plan\n"
        "           step: identity, repeat count, time, bound/scope)\n"
        "  dse      <config.json> plus the train or infer flags [--node N]\n"
        "           [--dram D] [--area MM2] [--power W] [--grid N]\n"
        "           [--rounds R] [--verbose] [--threads N]; optimize the\n"
        "           compute/memory area+power split for the run\n"
        "  record   <config.json> [--mode train|infer|plan|dse]\n"
        "           [--out run.json] [--label NAME]\n"
        "           write a schema-versioned RunRecord ledger entry;\n"
        "           --mode plan records what plan ranks, --mode dse\n"
        "           records what dse searches (an inference section\n"
        "           makes the run inference)\n"
        "  diff     <a.json> <b.json> [--check] [--tol-pct N] "
        "[--json]\n"
        "           compare two RunRecords; --check exits 1 on drift\n"
        "           beyond tolerance (default 0.5%)\n"
        "  version  print tool version, RunRecord schema, git SHA\n"
        "  presets  list built-in presets\n"
        "\n"
        "common flags: <config.json> or --config FILE (JSON, read by\n"
        "  every command but diff/version/presets; its members\n"
        "  override the flags above),\n"
        "  --mode train|infer (trace/kernels/record/lint/sensitivity/\n"
        "  dse; without it a config with an inference section runs\n"
        "  inference), --json (JSON output),\n"
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
        checkKnownFlags(args);
        for (const auto &[name, command] : kCommands)
            if (args.command() == name)
                return command(args);
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
