#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>

#include "core/optimus.h"

namespace perfbench {

using namespace optimus;

void
Predictions::add(double v)
{
    if (!std::isfinite(v) || v < 0.0)
        valid_ = false;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
        hash_ ^= (bits >> (8 * i)) & 0xffu;
        hash_ *= 1099511628211ull;
    }
}

void
Counts::add(const Counts &o)
{
    evals += o.evals;
    plans += o.plans;
    steps += o.steps;
    sweeps += o.sweeps;
    candidates += o.candidates;
    prunedIllegal += o.prunedIllegal;
    prunedMemory += o.prunedMemory;
    searches += o.searches;
    objectiveCalls += o.objectiveCalls;
    tracedEvals += o.tracedEvals;
    traceSpans += o.traceSpans;
    records += o.records;
    recordBytes += o.recordBytes;
}

void
Outcome::check(bool ok, const std::string &what)
{
    if (!ok && failure.empty())
        failure = what;
}

namespace {

// ---- Seeded draws ------------------------------------------------------

/** splitmix64: small, seedable and identical on every platform. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double uniform() { return double(next() >> 11) * 0x1.0p-53; }

    /** Uniform index in [0, n). */
    size_t below(size_t n) { return size_t(uniform() * double(n)); }

  private:
    std::uint64_t state_;
};

template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/**
 * @p n draws in [0, 1), one from the middle fifth of each of n equal
 * strata, in seeded order. Every seed gets nearly the same values in
 * a different arrangement, so a deck's cost barely depends on the
 * seed.
 */
std::vector<double>
stratified(Rng &rng, size_t n)
{
    std::vector<double> u(n);
    for (size_t k = 0; k < n; ++k)
        u[k] = (double(k) + 0.4 + 0.2 * rng.uniform()) / double(n);
    shuffle(u, rng);
    return u;
}

/**
 * stratified() within each of @p groups interleaved groups (item i is
 * in group i % groups), so every group spans the whole range.
 */
std::vector<double>
stratifiedPerGroup(Rng &rng, size_t n, size_t groups)
{
    std::vector<double> u(n);
    for (size_t g = 0; g < groups; ++g) {
        std::vector<double> s = stratified(rng, n / groups);
        for (size_t j = 0; j < s.size(); ++j)
            u[g + j * groups] = s[j];
    }
    return u;
}

long long
logUniform(double u, double lo, double hi)
{
    return std::llround(lo * std::pow(hi / lo, u));
}

template <typename T>
const T &
pick(const std::vector<T> &v, double u)
{
    return v[std::min(v.size() - 1, size_t(u * double(v.size())))];
}

std::string
pairKey(const TransformerConfig &model, const System &sys)
{
    return model.name + "/" + sys.device.name + "x" +
           std::to_string(sys.numNodes);
}

size_t
distinctPairs(const std::vector<std::string> &keys)
{
    return std::set<std::string>(keys.begin(), keys.end()).size();
}

// ---- Predictions and output checks -------------------------------------

bool
closeTo(double a, double b)
{
    return std::abs(a - b) <= 1e-12 * std::max(std::abs(a), std::abs(b));
}

void
addPhase(Predictions &p, const PhaseReport &r)
{
    for (double v : {r.time, r.computeBoundGemmTime, r.memoryBoundGemmTime,
                     r.otherKernelTime, r.commTime, r.overheadTime,
                     r.memoryTime})
        p.add(v);
}

void
addInference(Outcome &o, const InferenceReport &r)
{
    addPhase(o.preds, r.prefill);
    addPhase(o.preds, r.decode);
    o.preds.add(r.totalLatency);
    o.preds.add(r.kvCacheBytes);
    o.preds.add(r.weightBytes);
    o.check(closeTo(r.prefill.time + r.decode.time, r.totalLatency),
            "inference prefill + decode differs from totalLatency");
}

void
addBreakdown(Outcome &o, const TrainingBreakdown &t, double total)
{
    const double parts[] = {t.forward, t.backward, t.recompute,
                            t.embedding, t.tpComm, t.cpComm,
                            t.epComm, t.ppComm, t.dpComm,
                            t.bubble, t.optimizer};
    double sum = 0.0;
    for (double v : parts) {
        o.preds.add(v);
        sum += v;
    }
    o.preds.add(total);
    o.check(closeTo(sum, total),
            "training breakdown does not sum to timePerBatch");
}

void
addTraining(Outcome &o, const TrainingReport &r)
{
    addBreakdown(o, r.time, r.timePerBatch);
    o.preds.add(r.memory.total());
    o.preds.add(r.modelFlops);
    o.preds.add(r.mfu);
    o.preds.add(double(r.microbatches));
    o.preds.add(r.bubbleFraction);
}

void
addRecord(Outcome &o, const report::RunRecord &rec)
{
    for (const auto &[key, value] : rec.metrics)
        o.preds.add(value);
    for (const report::KernelStat &k : rec.kernels) {
        o.preds.add(double(k.count));
        o.preds.add(k.time);
        o.preds.add(k.flops);
        o.preds.add(k.dramBytes);
        o.preds.add(k.overhead);
    }
}

// ---- Stage-split evaluation (traced runs) ------------------------------

/**
 * evaluateInference split into the public plan stages it runs, each
 * under its own span. @p keep receives the evaluated plan.
 */
InferenceReport
stagedInference(const TransformerConfig &cfg, const System &sys,
                const InferenceOptions &opts, Tracer *tracer,
                Counts &counts, plan::EvaluatedPlan *keep = nullptr)
{
    plan::KernelPlan kp;
    {
        Span s(tracer, "plan.lower");
        kp = plan::lowerInference(cfg, sys, opts);
    }
    counts.plans += 1;
    counts.steps += static_cast<long long>(kp.steps.size());
    plan::EvaluatedPlan ep;
    {
        Span s(tracer, "plan.evaluate");
        ep = plan::evaluatePlan(std::move(kp), sys);
    }
    InferenceReport rep;
    {
        Span s(tracer, "plan.fold");
        plan::FoldedInference f = plan::foldInference(ep, nullptr);
        rep.prefill = f.prefill;
        rep.decode = f.decode;
        rep.totalLatency = rep.prefill.time + rep.decode.time;
    }
    {
        Span s(tracer, "memory.footprint");
        rep.kvCacheBytes =
            kvCacheBytes(cfg, opts.batch,
                         opts.promptLength + opts.generateLength,
                         opts.kvPrecision);
        rep.weightBytes = modelWeightBytes(cfg, opts.precision);
    }
    if (keep != nullptr) {
        *keep = std::move(ep);
    } else {
        Span s(tracer, "plan.release");
        plan::EvaluatedPlan release = std::move(ep);
    }
    return rep;
}

/** Training time per batch through the public plan stages. */
double
stagedTrainingTime(const TransformerConfig &cfg, const System &sys,
                   const ParallelConfig &par, long long batch,
                   const TrainingOptions &opts, Tracer *tracer,
                   std::atomic<long long> &plans,
                   std::atomic<long long> &steps)
{
    plan::KernelPlan kp;
    {
        Span s(tracer, "plan.lower");
        kp = plan::lowerTraining(cfg, sys, par, batch, opts);
    }
    plans += 1;
    steps += static_cast<long long>(kp.steps.size());
    plan::EvaluatedPlan ep;
    {
        Span s(tracer, "plan.evaluate");
        ep = plan::evaluatePlan(std::move(kp), sys);
    }
    Span s(tracer, "plan.fold");
    return plan::foldTraining(ep, nullptr).time.total();
}

// ---- Replays -----------------------------------------------------------

/** Keeps replayed results observable so no call is optimized away. */
volatile double g_sink = 0.0;

/** Every field evaluateOp reads. */
std::string
opKey(const Op &op)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%d|%lld|%lld|%lld|%d|%lld|%lld|%a|%a|%a|%a|%a|%a|%a|"
                  "%d|%a|%a|%d|%d",
                  static_cast<int>(op.kind), op.gemm.m, op.gemm.n,
                  op.gemm.k, static_cast<int>(op.gemm.precision),
                  op.count, op.launchCount, op.rows, op.cols,
                  op.elements, op.flopsPerElement, op.fusedFlops,
                  op.fusedDramBytes, op.fusedOnChipBytes,
                  static_cast<int>(op.fusedPrecision), op.streamBytes,
                  op.streamFlops, static_cast<int>(op.streamPrecision),
                  op.fused ? 1 : 0);
    return buf;
}

/**
 * Replay the roofline and collective layers on @p kp: every op not
 * yet in @p seen through evaluateOp, every collective step through
 * systemCollective. Also counts the compute parts a full evaluation
 * prices, for the memo-reuse ratio.
 */
void
replayOps(const plan::KernelPlan &kp, const System &sys,
          std::set<std::string> &seen, ReplayStats &out)
{
    std::vector<const Op *> ops;
    std::vector<const plan::PlanStep *> collectives;
    for (const plan::PlanStep &st : kp.steps) {
        if (st.kind == plan::StepKind::Collective)
            collectives.push_back(&st);
        if (st.kind != plan::StepKind::Compute)
            continue;
        for (const plan::ComputePart &part : st.parts) {
            out.partsPriced += 1;
            for (const Op &op : part.ops)
                if (seen.insert(opKey(op)).second)
                    ops.push_back(&op);
        }
    }

    const Device &dev = sys.device;
    double sink = 0.0;
    Clock::time_point t0 = Clock::now();
    for (const Op *op : ops)
        sink += evaluateOp(dev, *op).time;
    Clock::time_point t1 = Clock::now();
    for (const plan::PlanStep *st : collectives)
        sink += systemCollective(sys, st->collective, st->volume,
                                 st->groupSize, st->scope, st->algorithm)
                    .time;
    Clock::time_point t2 = Clock::now();
    g_sink = sink;

    out.opCalls += static_cast<long long>(ops.size());
    out.opSeconds += seconds(t0, t1);
    out.collectiveCalls += static_cast<long long>(collectives.size());
    out.collectiveSeconds += seconds(t1, t2);
}

/** Replay @p kp's layers, then price it through a fresh cache. */
void
replayPlan(plan::KernelPlan kp, const System &sys, ReplayStats &out)
{
    std::set<std::string> seen;
    replayOps(kp, sys, seen, out);
    plan::EvalCache cache;
    plan::EvaluateOptions eo;
    eo.cache = &cache;
    g_sink = plan::evaluatePlan(std::move(kp), sys, eo).evals.size();
    out.cacheEntries += static_cast<long long>(cache.size());
}

// ---- Config generators -------------------------------------------------

const std::vector<TransformerConfig> &
llamaModels()
{
    static const std::vector<TransformerConfig> v = {
        models::llama2_7b(), models::llama2_13b(), models::llama2_70b(),
        models::llama3_8b(), models::llama3_70b()};
    return v;
}

System
dgx(bool h100, int nodes)
{
    return h100 ? presets::dgxH100(nodes) : presets::dgxA100(nodes);
}

struct InferenceRequest
{
    TransformerConfig model;
    System sys;
    InferenceOptions opts;
};

/** A lint-clean request: raise TP, then halve the batch, until it fits. */
InferenceRequest
legalInference(const TransformerConfig &model, const System &sys,
               long long tp, long long batch, long long prompt,
               long long generate)
{
    InferenceRequest r{model, sys, {}};
    r.opts.tensorParallel = tp;
    r.opts.batch = batch;
    r.opts.promptLength = prompt;
    r.opts.generateLength = generate;
    while (lint::lintInference(r.model, r.sys, r.opts).hasErrors()) {
        if (r.opts.tensorParallel < r.sys.devicesPerNode)
            r.opts.tensorParallel *= 2;
        else if (r.opts.batch > 1)
            r.opts.batch /= 2;
        else
            throw std::runtime_error("no legal inference config for " +
                                     model.name);
    }
    return r;
}

struct TrainingRequest
{
    TransformerConfig model;
    System sys;
    ParallelConfig par;
    long long batch = 0;
    TrainingOptions opts;
};

/**
 * A lint-clean training request: the first legal mapping in seeded
 * order, with a global batch of @p microbatches per pipeline; doubles
 * the node count when none fits.
 */
TrainingRequest
legalTraining(Rng &rng, const TransformerConfig &model, bool h100,
              int nodes, long long microbatches, Recompute recompute)
{
    for (; nodes <= 64; nodes *= 2) {
        TrainingRequest r{model, dgx(h100, nodes), {}, 0, {}};
        r.opts.recompute = recompute;
        std::vector<ParallelConfig> maps;
        const long long devices = r.sys.totalDevices();
        for (long long tp = 1; tp <= 8; tp *= 2)
            for (long long pp = 1; pp <= 8 && tp * pp <= devices; pp *= 2)
                for (long long micro : {1, 2}) {
                    ParallelConfig par;
                    par.dataParallel = devices / (tp * pp);
                    par.tensorParallel = tp;
                    par.pipelineParallel = pp;
                    par.sequenceParallel = tp > 1;
                    par.microbatchSize = micro;
                    maps.push_back(par);
                }
        shuffle(maps, rng);
        for (const ParallelConfig &par : maps) {
            long long batch =
                par.dataParallel * par.microbatchSize * microbatches;
            if (!lint::lintTraining(model, r.sys, par, batch, r.opts)
                     .hasErrors()) {
                r.par = par;
                r.batch = batch;
                return r;
            }
        }
    }
    throw std::runtime_error("no legal training mapping for " +
                             model.name);
}

// ---- infer_decode -------------------------------------------------------

class InferDecode final : public Workload
{
  public:
    std::string name() const override { return "infer_decode"; }

    void
    generate(std::uint64_t seed) override
    {
        constexpr size_t kDeck = 24;
        Rng rng(seed);
        std::vector<double> um = stratified(rng, kDeck),
                            us = stratified(rng, kDeck),
                            ut = stratified(rng, kDeck),
                            ub = stratified(rng, kDeck),
                            up = stratified(rng, kDeck),
                            ug = stratified(rng, kDeck);
        const std::vector<long long> tps = {1, 2, 4, 8};
        reqs_.clear();
        for (size_t i = 0; i < kDeck; ++i)
            reqs_.push_back(legalInference(
                pick(llamaModels(), um[i]), dgx(us[i] >= 0.5, 1),
                pick(tps, ut[i]), logUniform(ub[i], 1, 64),
                logUniform(up[i], 128, 2048),
                logUniform(ug[i], 64, 4096)));
        // The longest request becomes the largest legal one, the same
        // on every seed, so the tail and peak memory compare across
        // seeds.
        auto longest = std::max_element(
            reqs_.begin(), reqs_.end(),
            [](const InferenceRequest &a, const InferenceRequest &b) {
                return a.opts.generateLength < b.opts.generateLength;
            });
        *longest = legalInference(models::llama2_70b(), dgx(false, 1), 8,
                                  64, 2048, 4096);
    }

    size_t size() const override { return reqs_.size(); }

    std::vector<SummaryItem>
    summary() const override
    {
        double generated = 0.0, prompt = 0.0;
        std::vector<std::string> pairs;
        for (const InferenceRequest &r : reqs_) {
            generated += double(r.opts.generateLength);
            prompt += double(r.opts.promptLength);
            pairs.push_back(pairKey(r.model, r.sys));
        }
        return {{"requests", double(reqs_.size())},
                {"generated_tokens", generated},
                {"prompt_tokens", prompt},
                {"model_system_pairs", double(distinctPairs(pairs))}};
    }

    /** The three requests that generate the fewest tokens. */
    std::vector<size_t>
    warmup() const override
    {
        std::vector<size_t> idx(reqs_.size());
        for (size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
            return reqs_[a].opts.generateLength <
                   reqs_[b].opts.generateLength;
        });
        idx.resize(std::min<size_t>(3, idx.size()));
        return idx;
    }

    Outcome
    run(size_t i, const RunContext &ctx) override
    {
        const InferenceRequest &r = reqs_[i];
        Outcome o;
        InferenceReport rep =
            ctx.tracer != nullptr
                ? stagedInference(r.model, r.sys, r.opts, ctx.tracer,
                                  o.counts)
                : evaluateInference(r.model, r.sys, r.opts);
        o.counts.evals = 1;
        addInference(o, rep);
        return o;
    }

    void
    replay(size_t i, Tracer &, ReplayStats &out) override
    {
        const InferenceRequest &r = reqs_[i];
        replayPlan(plan::lowerInference(r.model, r.sys, r.opts), r.sys,
                   out);
    }

  private:
    std::vector<InferenceRequest> reqs_;
};

// ---- plan_sweep ---------------------------------------------------------

struct SweepRequest
{
    TransformerConfig model;
    System sys;
    long long batch = 0;
};

class PlanSweep final : public Workload
{
  public:
    std::string name() const override { return "plan_sweep"; }
    int threads() const override { return 2; }

    void
    generate(std::uint64_t seed) override
    {
        // Each model once per system; every (model, system) pair runs
        // twice in a row with different global batches.
        struct Preset
        {
            TransformerConfig model;
            int minNodes;
        };
        const std::vector<Preset> presets = {
            {models::gpt7b(), 4},   {models::gpt22b(), 4},
            {models::gpt175b(), 8}, {models::gpt310b(), 8},
            {models::gpt530b(), 16}, {models::llama2_70b(), 4}};
        const size_t pairs = 2 * presets.size();
        Rng rng(seed);
        // Pair k runs model k % 6 on system k / 6. A model's two pairs
        // take the node counts a quarter and three quarters up its
        // range, on a seeded choice of system, and its four requests
        // one global batch from each quartile of the range.
        std::vector<size_t> order(pairs);
        std::vector<double> un(pairs), ub(2 * pairs);
        for (size_t k = 0; k < presets.size(); ++k) {
            bool flip = rng.uniform() < 0.5;
            un[k] = flip ? 0.75 : 0.25;
            un[k + presets.size()] = flip ? 0.25 : 0.75;
            std::vector<double> u = stratified(rng, 4);
            for (size_t j = 0; j < 2; ++j) {
                ub[2 * k + j] = u[j];
                ub[2 * (k + presets.size()) + j] = u[2 + j];
            }
        }
        for (size_t k = 0; k < pairs; ++k)
            order[k] = k;
        shuffle(order, rng);
        reqs_.clear();
        for (size_t k = 0; k < pairs; ++k) {
            const Preset &p = presets[order[k] % presets.size()];
            std::vector<int> nodes;
            for (int n = p.minNodes; n <= 64; n *= 2)
                nodes.push_back(n);
            System sys = dgx(order[k] >= presets.size(),
                             pick(nodes, un[order[k]]));
            for (size_t j = 0; j < 2; ++j) {
                long long batch =
                    logUniform(ub[2 * order[k] + j], 256, 2048);
                reqs_.push_back(
                    SweepRequest{p.model, sys, (batch + 32) / 64 * 64});
            }
        }
    }

    size_t size() const override { return reqs_.size(); }

    std::vector<SummaryItem>
    summary() const override
    {
        // Candidate space before lint and memory pruning: TP and PP
        // powers of two, interleaving, microbatch, recompute, ZeRO.
        const TrainingPlannerOptions po = options(1, nullptr);
        double space = 0.0;
        std::vector<std::string> pairs;
        for (const SweepRequest &r : reqs_) {
            pairs.push_back(pairKey(r.model, r.sys));
            const long long devices = r.sys.totalDevices();
            for (long long tp = 1; tp <= r.sys.devicesPerNode; tp *= 2)
                for (long long pp = 1;
                     tp * pp <= devices && pp <= r.model.numLayers;
                     pp *= 2) {
                    double interleaves =
                        (pp > 1 && r.model.numLayers / pp > 1) ? 2 : 1;
                    space += interleaves *
                             double(po.microbatchSizes.size() *
                                    po.recomputeChoices.size() *
                                    po.zeroStages.size());
                }
        }
        return {{"requests", double(reqs_.size())},
                {"model_system_pairs", double(distinctPairs(pairs))},
                {"candidate_space", space}};
    }

    /** The requests of the largest model, which the fewest plans fit. */
    std::vector<size_t>
    warmup() const override
    {
        std::vector<size_t> idx;
        for (size_t i = 0; i < reqs_.size(); ++i)
            if (reqs_[i].model.name == models::gpt530b().name)
                idx.push_back(i);
        return idx;
    }

    Outcome
    run(size_t i, const RunContext &ctx) override
    {
        const SweepRequest &r = reqs_[i];
        Outcome o;
        TraceSession counters;
        std::vector<TrainingPlan> plans;
        {
            Span s(ctx.tracer, "planner.plan_training");
            plans = planTraining(
                r.model, r.sys, r.batch,
                options(ctx.threads,
                        ctx.tracer != nullptr ? &counters : nullptr));
        }
        o.check(!plans.empty(), "planner found no plan");
        for (size_t k = 0; k < plans.size(); ++k) {
            const TrainingPlan &p = plans[k];
            for (long long v : {p.parallel.dataParallel,
                                p.parallel.tensorParallel,
                                p.parallel.pipelineParallel,
                                p.parallel.microbatchSize,
                                p.parallel.interleavedStages,
                                static_cast<long long>(p.options.recompute),
                                static_cast<long long>(
                                    p.options.memory.zeroStage)})
                o.preds.add(double(v));
            addTraining(o, p.report);
            if (k > 0)
                o.check(plans[k - 1].report.timePerBatch <=
                            p.report.timePerBatch,
                        "planner ranking is not ascending");
        }
        o.counts.evals = static_cast<long long>(plans.size());
        o.counts.sweeps = 1;
        o.counts.candidates = o.counts.evals;
        o.counts.prunedIllegal = counters.counter("planner/pruned-illegal");
        o.counts.prunedMemory = counters.counter("planner/pruned-memory");
        return o;
    }

    void
    replay(size_t i, Tracer &tracer, ReplayStats &out) override
    {
        const SweepRequest &r = reqs_[i];
        Clock::time_point t0 = Clock::now();
        std::vector<TrainingPlan> plans =
            planTraining(r.model, r.sys, r.batch, options(1, nullptr));
        out.sweepSeconds += seconds(t0, Clock::now());
        out.sweeps += 1;

        // Every candidate again through lower -> evaluate -> fold,
        // sharing one benchmark-owned cache as the planner does.
        plan::EvalCache cache;
        plan::EvaluateOptions eo;
        eo.cache = &cache;
        std::set<std::string> seen;
        for (const TrainingPlan &p : plans) {
            Clock::time_point a = Clock::now();
            plan::KernelPlan kp;
            {
                Span s(&tracer, "plan.lower");
                kp = plan::lowerTraining(r.model, r.sys, p.parallel,
                                         r.batch, p.options);
            }
            Clock::time_point b = Clock::now();
            out.counts.plans += 1;
            out.counts.steps += static_cast<long long>(kp.steps.size());
            replayOps(kp, r.sys, seen, out);
            Clock::time_point c = Clock::now();
            plan::EvaluatedPlan ep;
            {
                Span s(&tracer, "plan.evaluate");
                ep = plan::evaluatePlan(std::move(kp), r.sys, eo);
            }
            double total = 0.0;
            {
                Span s(&tracer, "plan.fold");
                total = plan::foldTraining(ep, nullptr).time.total();
            }
            out.candidateSeconds += seconds(a, b) + seconds(c, Clock::now());
            if (total != p.report.timePerBatch)
                out.failures += 1;
        }
        out.cacheEntries += static_cast<long long>(cache.size());
    }

  private:
    static TrainingPlannerOptions
    options(int threads, TraceSession *trace)
    {
        TrainingPlannerOptions po;
        po.keep = std::numeric_limits<size_t>::max();
        po.microbatchSizes = {1, 2, 4, 8};
        po.zeroStages = {0, 1, 2, 3};
        po.threads = threads;
        po.trace = trace;
        return po;
    }

    std::vector<SweepRequest> reqs_;
};

// ---- dse_tech -----------------------------------------------------------

struct DseRequest
{
    TechConfig tech;
    NetworkLink inter;
};

/** Table 3's GPT-7B training config (DP-TP-SP-PP = 64-4-4-4). */
struct Table3Config
{
    ParallelConfig par;
    TrainingOptions opts;
    long long batch = 512;

    Table3Config()
    {
        par.dataParallel = 64;
        par.tensorParallel = 4;
        par.pipelineParallel = 4;
        par.sequenceParallel = true;
        par.schedule = PipelineSchedule::Interleaved1F1B;
        par.interleavedStages = 8;
        opts.recompute = Recompute::Selective;
    }

    System
    system(const Device &dev, const NetworkLink &inter) const
    {
        return makeSystem(dev, 8, 128, presets::nvlink4(), inter);
    }
};

/**
 * Searches run on one thread. At two, each search wakes the worker a
 * dozen times (the grid and every refinement round fan out), and on a
 * shared virtual machine the wake-up latency swung the slowest
 * requests by a fifth between runs; plan_sweep measures the fan-out.
 */
class DseTech final : public Workload
{
  public:
    std::string name() const override { return "dse_tech"; }

    /**
     * Every corner of Fig. 6's sweep once, in seeded order, each with
     * area and power budgets drawn from a narrow band around the
     * defaults. Every seed prices the same corners, so the deck's
     * slowest requests do not depend on which corners a seed drew.
     */
    void
    generate(std::uint64_t seed) override
    {
        reqs_.clear();
        for (const LogicNode &n : logicNodes())
            for (const DramTech &d : dram::trainingSweep())
                for (const NetworkLink &l : nettech::scalingSweep()) {
                    DseRequest r;
                    r.tech.node = n;
                    r.tech.dram = d;
                    r.inter = l;
                    reqs_.push_back(r);
                }
        Rng rng(seed);
        std::vector<double> ua = stratified(rng, reqs_.size()),
                            up = stratified(rng, reqs_.size());
        for (size_t i = 0; i < reqs_.size(); ++i) {
            reqs_[i].tech.areaBudget *= 1.0 + kBudgetBand * (ua[i] - 0.5);
            reqs_[i].tech.powerBudget *= 1.0 + kBudgetBand * (up[i] - 0.5);
        }
        shuffle(reqs_, rng);
    }

    size_t size() const override { return reqs_.size(); }

    std::vector<SummaryItem>
    summary() const override
    {
        std::set<std::string> corners;
        for (const DseRequest &r : reqs_)
            corners.insert(r.tech.node.name + "/" + r.tech.dram.name +
                           "/" + r.inter.name);
        const DseOptions d = options(1);
        return {{"requests", double(reqs_.size())},
                {"distinct_corners", double(corners.size())},
                {"objective_calls_max",
                 double(d.gridSteps * d.gridSteps + 4 * d.refineRounds)}};
    }

    /** The first node's corners with the first DRAM: on every seed. */
    std::vector<size_t>
    warmup() const override
    {
        std::vector<size_t> idx;
        for (size_t i = 0; i < reqs_.size(); ++i)
            if (reqs_[i].tech.node.name == logicNodes()[0].name &&
                reqs_[i].tech.dram.name == dram::trainingSweep()[0].name)
                idx.push_back(i);
        return idx;
    }

    /** Every search starts from a cold tile memo. */
    void prepare() override { tileCacheClear(); }

    Outcome
    run(size_t i, const RunContext &ctx) override
    {
        const DseRequest &r = reqs_[i];
        Outcome o;
        std::atomic<long long> plans{0}, steps{0};
        DseResult res;
        {
            Span search(ctx.tracer, "dse.search");
            const int parent = search.id();
            Tracer *tracer = ctx.tracer;
            res = optimizeAllocation(
                r.tech,
                [&](const Device &dev) {
                    Span s(tracer, "dse.objective", parent);
                    return objective(dev, r.inter, tracer, plans, steps);
                },
                options(ctx.threads));
        }
        o.preds.add(res.objective);
        o.preds.add(res.allocation.computeAreaFraction);
        o.preds.add(res.allocation.computePowerFraction);
        o.preds.add(double(res.evaluations));
        o.check(res.evaluations > 0, "DSE made no objective call");
        o.counts.evals = res.evaluations;
        o.counts.searches = 1;
        o.counts.objectiveCalls = res.evaluations;
        o.counts.plans = plans;
        o.counts.steps = steps;
        o.deferredCheck = [inter = r.inter, res](Outcome &out) {
            std::atomic<long long> p{0}, s{0};
            out.check(objective(res.device, inter, nullptr, p, s) ==
                          res.objective,
                      "DSE objective differs from the objective "
                      "re-evaluated on the returned device");
        };
        return o;
    }

    void
    replay(size_t i, Tracer &, ReplayStats &out) override
    {
        const DseRequest &r = reqs_[i];
        std::atomic<long long> plans{0}, steps{0};
        DseResult res = optimizeAllocation(
            r.tech,
            [&](const Device &dev) {
                return objective(dev, r.inter, nullptr, plans, steps);
            },
            options(1));
        const Table3Config t3;
        System sys = t3.system(res.device, r.inter);
        replayPlan(plan::lowerTraining(models::gpt7b(), sys, t3.par,
                                       t3.batch, t3.opts),
                   sys, out);
    }

  private:
    /** Width of the budget band, as a share of the default budget. */
    static constexpr double kBudgetBand = 0.04;

    /** Fig. 6's search settings. */
    static DseOptions
    options(int threads)
    {
        DseOptions d;
        d.gridSteps = 3;
        d.refineRounds = 10;
        d.threads = threads;
        return d;
    }

    /** Table 3 GPT-7B training time on @p dev; staged when traced. */
    static double
    objective(const Device &dev, const NetworkLink &inter, Tracer *tracer,
              std::atomic<long long> &plans, std::atomic<long long> &steps)
    {
        static const TransformerConfig model = models::gpt7b();
        const Table3Config t3;
        System sys = t3.system(dev, inter);
        if (tracer == nullptr)
            return evaluateTraining(model, sys, t3.par, t3.batch, t3.opts)
                .timePerBatch;
        return stagedTrainingTime(model, sys, t3.par, t3.batch, t3.opts,
                                  tracer, plans, steps);
    }

    std::vector<DseRequest> reqs_;
};

// ---- cli_mix ------------------------------------------------------------

enum class CliKind {
    RecordTraining,
    RecordInference,
    Kernels,
    TracedTraining,
    TracedInference,
    Serving,
    Speculative,
};
constexpr size_t kCliKinds = 7;

struct CliRequest
{
    CliKind kind = CliKind::RecordTraining;
    bool training = false;  ///< a training config (else inference)
    TrainingRequest train;
    InferenceRequest infer;
    ServingPlannerOptions serving;
    TransformerConfig draft;
    SpeculativeOptions spec;
};

class CliMix final : public Workload
{
  public:
    std::string name() const override { return "cli_mix"; }

    void
    generate(std::uint64_t seed) override
    {
        constexpr size_t kDeck = 8 * kCliKinds;
        Rng rng(seed);
        auto draw = [&] { return stratifiedPerGroup(rng, kDeck, kCliKinds); };
        std::vector<double> um = draw(), us = draw(), ut = draw(),
                            ub = draw(), up = draw(), ug = draw();
        const std::vector<TransformerConfig> trainModels = {
            models::gpt7b(), models::gpt22b(), models::llama2_70b(),
            models::gpt175b()};
        const std::vector<int> trainNodes = {2, 4, 8, 16};
        const std::vector<long long> tps = {1, 2, 4, 8};
        struct SpecPair
        {
            TransformerConfig target, draft;
        };
        const std::vector<SpecPair> specPairs = {
            {models::llama2_70b(), models::llama2_7b()},
            {models::llama2_13b(), models::llama2_7b()},
            {models::llama3_70b(), models::llama3_8b()}};

        reqs_.clear();
        for (size_t i = 0; i < kDeck; ++i) {
            CliRequest q;
            q.kind = static_cast<CliKind>(i % kCliKinds);
            q.training = q.kind == CliKind::RecordTraining ||
                         q.kind == CliKind::TracedTraining;
            const bool h100 = us[i] >= 0.5;
            if (q.training)
                q.train = legalTraining(
                    rng, pick(trainModels, um[i]), h100,
                    pick(trainNodes, ut[i]), logUniform(ub[i], 1, 16),
                    ug[i] < 0.5 ? Recompute::Selective : Recompute::Full);
            else
                q.infer = legalInference(
                    pick(llamaModels(), um[i]), dgx(h100, 1),
                    pick(tps, ut[i]), logUniform(ub[i], 1, 32),
                    logUniform(up[i], 128, 2048),
                    logUniform(ug[i], 32, 256));
            if (q.kind == CliKind::Serving) {
                q.serving.serving.promptLength = q.infer.opts.promptLength;
                q.serving.serving.generateLength =
                    q.infer.opts.generateLength;
            }
            if (q.kind == CliKind::Speculative) {
                const SpecPair &sp = pick(specPairs, um[i]);
                q.infer = legalInference(
                    sp.target, dgx(h100, 1), pick(tps, ut[i]), 1,
                    logUniform(up[i], 128, 4096), 1);
                q.draft = sp.draft;
                q.spec.tensorParallel = q.infer.opts.tensorParallel;
                q.spec.context = q.infer.opts.promptLength;
                q.spec.gamma = 2 + static_cast<long long>(rng.below(7));
                q.spec.acceptanceRate = 0.5 + 0.4 * ub[i];
            }
            reqs_.push_back(std::move(q));
        }
        // The largest request of each kind whose plan grows with the
        // tokens becomes the largest legal one, the same on every seed,
        // so the tail compares across seeds.
        for (CliKind k : {CliKind::RecordInference, CliKind::Kernels,
                          CliKind::TracedInference}) {
            size_t top = size_t(k);
            for (size_t i = top; i < reqs_.size(); i += kCliKinds)
                if (bulk(reqs_[i]) > bulk(reqs_[top]))
                    top = i;
            reqs_[top].infer = legalInference(
                models::llama2_70b(), dgx(false, 1), 8, 32, 2048, 256);
        }
        previous_.reset();
    }

    size_t size() const override { return reqs_.size(); }

    std::vector<SummaryItem>
    summary() const override
    {
        double generated = 0.0;
        std::vector<std::string> pairs;
        for (const CliRequest &q : reqs_) {
            if (q.training) {
                pairs.push_back(pairKey(q.train.model, q.train.sys));
            } else {
                pairs.push_back(pairKey(q.infer.model, q.infer.sys));
                if (q.kind != CliKind::Speculative)
                    generated += double(q.infer.opts.generateLength);
            }
        }
        return {{"requests", double(reqs_.size())},
                {"request_kinds", double(kCliKinds)},
                {"generated_tokens", generated},
                {"model_system_pairs", double(distinctPairs(pairs))}};
    }

    /**
     * The smallest request of each kind: its cost varies least with
     * the seed, so set-up costs the same on every seed.
     */
    std::vector<size_t>
    warmup() const override
    {
        std::vector<size_t> idx(kCliKinds);
        for (size_t i = 0; i < kCliKinds; ++i)
            idx[i] = i;
        for (size_t i = kCliKinds; i < reqs_.size(); ++i)
            if (bulk(reqs_[i]) < bulk(reqs_[idx[i % kCliKinds]]))
                idx[i % kCliKinds] = i;
        return idx;
    }

    Outcome
    run(size_t i, const RunContext &ctx) override
    {
        const CliRequest &q = reqs_[i];
        Outcome o;
        Tracer *tr = ctx.tracer;
        switch (q.kind) {
          case CliKind::RecordTraining:
          case CliKind::RecordInference:
            record(q, tr, o);
            break;
          case CliKind::Kernels: {
            const InferenceRequest &r = q.infer;
            plan::EvaluatedPlan ep;
            InferenceReport rep;
            if (tr != nullptr) {
                rep = stagedInference(r.model, r.sys, r.opts, tr,
                                      o.counts, &ep);
            } else {
                plan::InferenceRun run =
                    plan::runInference(r.model, r.sys, r.opts);
                rep = run.report;
                ep = std::move(run.plan);
            }
            std::string dump;
            {
                Span s(tr, "plan.json_dump");
                dump = plan::planJson(ep).dump(2);
            }
            o.check(!dump.empty(), "empty kernels dump");
            o.counts.evals = 1;
            addInference(o, rep);
            break;
          }
          case CliKind::TracedTraining:
          case CliKind::TracedInference: {
            TraceSession session;
            {
                Span s(tr, "trace.evaluate");
                if (q.training) {
                    TrainingOptions opts = q.train.opts;
                    opts.trace = &session;
                    addTraining(o, evaluateTraining(q.train.model,
                                                    q.train.sys,
                                                    q.train.par,
                                                    q.train.batch, opts));
                } else {
                    InferenceOptions opts = q.infer.opts;
                    opts.trace = &session;
                    addInference(o, evaluateInference(q.infer.model,
                                                      q.infer.sys, opts));
                }
            }
            std::string chrome;
            {
                Span s(tr, "trace.chrome_export");
                chrome = chromeTraceJson(session).dump();
            }
            o.check(!session.spans().empty() && !chrome.empty(),
                    "traced evaluation emitted no spans");
            o.counts.evals = 1;
            o.counts.tracedEvals = 1;
            o.counts.traceSpans =
                static_cast<long long>(session.spans().size());
            break;
          }
          case CliKind::Serving:
            serve(q, tr, o);
            break;
          case CliKind::Speculative: {
            SpeculativeReport rep;
            {
                Span s(tr, "inference.speculative");
                rep = evaluateSpeculative(q.infer.model, q.draft,
                                          q.infer.sys, q.spec);
            }
            for (double v : {rep.draftStepTime, rep.verifyTime,
                             rep.cycleTime, rep.expectedTokensPerCycle,
                             rep.tokensPerSecond,
                             rep.baselineTokensPerSecond, rep.speedup})
                o.preds.add(v);
            o.counts.evals = 1;
            break;
          }
        }
        return o;
    }

    void
    replay(size_t i, Tracer &, ReplayStats &out) override
    {
        const CliRequest &q = reqs_[i];
        if (q.kind == CliKind::TracedTraining ||
            q.kind == CliKind::TracedInference)
            replayTrace(q, out);
        if (q.kind == CliKind::Serving || q.kind == CliKind::Speculative)
            return;  // off-plan paths: nothing to lower
        if (q.training)
            replayPlan(plan::lowerTraining(q.train.model, q.train.sys,
                                           q.train.par, q.train.batch,
                                           q.train.opts),
                       q.train.sys, out);
        else
            replayPlan(plan::lowerInference(q.infer.model, q.infer.sys,
                                            q.infer.opts),
                       q.infer.sys, out);
    }

  private:
    /**
     * What a request's cost grows with: layers times generated tokens,
     * or layers times pipeline stages times microbatches per pipeline.
     */
    static double
    bulk(const CliRequest &q)
    {
        if (!q.training)
            return double(q.infer.model.numLayers) *
                   double(q.infer.opts.generateLength);
        const ParallelConfig &p = q.train.par;
        return double(q.train.model.numLayers) *
               double(p.pipelineParallel) * double(q.train.batch) /
               double(p.dataParallel * p.microbatchSize);
    }

    /** record -> toJson -> dump -> parse -> diffRuns. */
    void
    record(const CliRequest &q, Tracer *tr, Outcome &o)
    {
        report::RunRecord rec;
        {
            Span s(tr, "report.record");
            rec = q.training
                      ? report::recordTraining(q.train.model, q.train.sys,
                                               q.train.par, q.train.batch,
                                               q.train.opts, "perfbench")
                      : report::recordInference(q.infer.model,
                                                q.infer.sys, q.infer.opts,
                                                "perfbench");
        }
        std::string text;
        {
            Span s(tr, "report.serialize");
            text = report::toJson(rec).dump();
        }
        report::RunRecord back;
        {
            Span s(tr, "report.parse");
            back = report::recordFromJson(JsonValue::parse(text));
        }
        bool clean = false;
        {
            Span s(tr, "report.diff");
            clean = report::diffRuns(rec, back).empty();
        }
        if (previous_) {
            Span s(tr, "report.diff");
            g_sink = double(report::diffRuns(*previous_, back).kernels.size());
        }
        previous_ = std::move(back);
        o.check(clean, "record dump -> parse -> diff round trip is not "
                       "clean");
        addRecord(o, rec);
        o.counts.evals = 1;
        o.counts.records = 1;
        o.counts.recordBytes = double(text.size());
    }

    /** planServing, then maxThroughputPoint at the winning TP. */
    static void
    serve(const CliRequest &q, Tracer *tr, Outcome &o)
    {
        const InferenceRequest &r = q.infer;
        std::vector<ServingPlan> plans;
        {
            Span s(tr, "inference.serving_plan");
            plans = planServing(r.model, r.sys, q.serving);
        }
        o.check(!plans.empty(), "serving planner found no deployment");
        if (plans.empty())
            return;
        for (size_t k = 0; k < plans.size(); ++k) {
            const ServingPlan &p = plans[k];
            o.preds.add(double(p.tensorParallel));
            o.preds.add(double(p.point.batch));
            o.preds.add(p.point.tokensPerSecond);
            o.preds.add(p.point.interTokenLatency);
            o.preds.add(p.tokensPerSecondPerDevice);
            if (k > 0)
                o.check(plans[k - 1].tokensPerSecondPerDevice >=
                            p.tokensPerSecondPerDevice,
                        "serving ranking is not descending");
        }
        ServingOptions sv = q.serving.serving;
        sv.tensorParallel = plans.front().tensorParallel;
        ServingPoint pt;
        {
            Span s(tr, "inference.max_throughput");
            pt = maxThroughputPoint(r.model, r.sys, sv);
        }
        for (double v : {double(pt.batch), pt.decodeStepTime,
                         pt.tokensPerSecond, pt.requestsPerSecond,
                         pt.timeToFirstToken, pt.interTokenLatency,
                         pt.kvCacheBytesPerDevice})
            o.preds.add(v);
        o.counts.evals = 2;
    }

    /** Best of five traced and untraced evaluations of one config. */
    static void
    replayTrace(const CliRequest &q, ReplayStats &out)
    {
        double traced = std::numeric_limits<double>::infinity();
        double untraced = traced;
        size_t spans = 0;
        for (int rep = 0; rep < 5; ++rep) {
            for (bool on : {false, true}) {
                TraceSession session;
                Clock::time_point t0 = Clock::now();
                if (q.training) {
                    TrainingOptions opts = q.train.opts;
                    opts.trace = on ? &session : nullptr;
                    g_sink = evaluateTraining(q.train.model, q.train.sys,
                                              q.train.par, q.train.batch,
                                              opts)
                                 .timePerBatch;
                } else {
                    InferenceOptions opts = q.infer.opts;
                    opts.trace = on ? &session : nullptr;
                    g_sink = evaluateInference(q.infer.model, q.infer.sys,
                                               opts)
                                 .totalLatency;
                }
                double dt = seconds(t0, Clock::now());
                (on ? traced : untraced) =
                    std::min(on ? traced : untraced, dt);
                if (on)
                    spans = session.spans().size();
            }
        }
        out.tracedEvals += 1;
        out.tracedSeconds += traced;
        out.untracedSeconds += untraced;
        out.traceSpans += static_cast<long long>(spans);
    }

    std::vector<CliRequest> reqs_;
    /** The last parsed record: each record request diffs against it. */
    std::optional<report::RunRecord> previous_;
};

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"infer_decode", "plan_sweep", "dse_tech", "cli_mix"};
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "infer_decode")
        return std::make_unique<InferDecode>();
    if (name == "plan_sweep")
        return std::make_unique<PlanSweep>();
    if (name == "dse_tech")
        return std::make_unique<DseTech>();
    if (name == "cli_mix")
        return std::make_unique<CliMix>();
    return nullptr;
}

} // namespace perfbench
