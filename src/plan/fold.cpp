/**
 * @file
 * The single folder: derives every downstream artifact — breakdown
 * aggregates, trace spans, per-kernel RunRecord aggregates — from one
 * evaluated plan via one shared span-stream walker, so the trace
 * invariant (per-category span sums reproduce the aggregate report)
 * holds by construction.
 */

#include "plan/plan.h"

#include <array>

#include "trace/trace.h"
#include "util/error.h"

namespace optimus {
namespace plan {

namespace {

double
instances(const PlanStep &st)
{
    return double(st.repeatLayer) * double(st.repeatMicrobatch);
}

/**
 * Visit every (step index, token offset) pair of @p kp in the order a
 * plan with one step per (token, op) would list them: consecutive
 * steps sharing a token range (same step and repeatToken) are walked
 * token-major — for each token, each step of the group in plan order.
 */
template <typename Fn>
void
forEachStepToken(const KernelPlan &kp, Fn &&fn)
{
    const std::vector<PlanStep> &steps = kp.steps;
    for (size_t i = 0; i < steps.size();) {
        size_t end = i + 1;
        while (end < steps.size() && steps[end].step == steps[i].step &&
               steps[end].repeatToken == steps[i].repeatToken)
            ++end;
        for (long long t = 0; t < steps[i].repeatToken; ++t)
            for (size_t k = i; k < end; ++k)
                fn(k, t);
        i = end;
    }
}

/** Seconds per (microbatch, layer) instance of token @p t. */
double
tokenPerInstance(const PlanStep &st, const StepEval &ev, long long t)
{
    return st.contextDependent ? ev.tokens[t].time : ev.perInstance;
}

/** True when every token of @p st is bucketed by its own bound. */
bool
bucketsPerToken(const PlanStep &st)
{
    return st.contextDependent && st.bucketByBound;
}

/** A step's category per BoundBucket. */
using BucketCategories = std::array<std::string, 3>;

BucketCategories
bucketCategories(const PlanStep &st)
{
    BucketCategories out;
    for (BoundBucket b : {BoundBucket::GemmCompute,
                          BoundBucket::GemmMemory, BoundBucket::Other})
        out[size_t(b)] = boundCategory(st.phase, b);
    return out;
}

/**
 * Category of token @p t: a per-token bucketed step picks it from
 * @p cats, every other step has one category.
 */
const std::string &
tokenCategory(const PlanStep &st, const StepEval &ev,
              const BucketCategories &cats, long long t)
{
    if (!bucketsPerToken(st))
        return ev.category;
    return cats[size_t(ev.tokens[t].bucket)];
}

/**
 * Instance span of token @p t of a step (coordinates stamped by the
 * caller). A bucketByBound step's span carries kernel detail: its
 * part estimate, or token t's cost and bytes.
 */
TraceSpan
instanceSpan(const Device &dev, const PlanStep &st, const StepEval &ev,
             const BucketCategories &cats, long long t)
{
    const std::string &category = tokenCategory(st, ev, cats, t);
    if (st.bucketByBound && !st.contextDependent)
        return kernelSpan(dev, st.name, category, ev.partEsts[0]);
    TraceSpan s;
    s.name = st.name;
    s.category = category;
    s.duration = tokenPerInstance(st, ev, t);
    if (st.bucketByBound) {
        const TokenCost &c = ev.tokens[t];
        const size_t levels = dev.mem.size();
        const auto bytes = ev.tokenBytes.begin() + t * levels;
        s.flops = c.flops;
        s.bytesPerLevel.assign(bytes, bytes + levels);
        s.overhead = c.overhead;
        s.bound = boundLevelName(dev, c.boundLevel);
    }
    return s;
}

/**
 * Walk the deterministic span stream of an evaluated plan, per
 * (step, token) in forEachStepToken order: first the step's per-op
 * kernel-detail spans (detailLane), then its instance spans in
 * microbatch-major, layer-inner order (a step without coordLayer
 * emits one span per microbatch covering all its layers). @p fn
 * receives (lane name, span).
 */
template <typename Fn>
void
forEachStepSpan(const EvaluatedPlan &ep, Fn &&fn)
{
    std::vector<BucketCategories> cats(ep.plan.steps.size());
    for (size_t i = 0; i < ep.plan.steps.size(); ++i)
        if (bucketsPerToken(ep.plan.steps[i]))
            cats[i] = bucketCategories(ep.plan.steps[i]);

    forEachStepToken(ep.plan, [&](size_t i, long long t) {
        const PlanStep &st = ep.plan.steps[i];
        const StepEval &ev = ep.evals[i];

        if (!st.detailLane.empty() && !ev.opEsts.empty()) {
            const std::vector<Op> &ops = st.parts[0].ops;
            for (size_t j = 0; j < ops.size(); ++j) {
                TraceSpan s = kernelSpan(ep.dev, ops[j].name, "kernel",
                                         ev.opEsts[j]);
                s.microbatch = 0;
                s.layer = 0;
                fn(st.detailLane, std::move(s));
            }
        }

        if (st.kind == StepKind::Synthetic) {
            // The bubble span is suppressed when the schedule has no
            // bubble (pp == 1); the optimizer span always appears.
            if (st.synthetic == SyntheticKind::Bubble &&
                !(ev.total > 0.0))
                return;
            TraceSpan s;
            s.name = st.name;
            s.category = ev.category;
            s.duration = ev.total;
            fn(st.lane, std::move(s));
            return;
        }

        const long long step = st.step + t;
        for (long long mb = 0; mb < st.repeatMicrobatch; ++mb) {
            if (!st.coordLayer) {
                TraceSpan s = instanceSpan(ep.dev, st, ev, cats[i], t);
                const double rl = double(st.repeatLayer);
                s.duration = tokenPerInstance(st, ev, t) * rl;
                if (s.isKernel()) {
                    s.flops *= rl;
                    for (double &b : s.bytesPerLevel)
                        b *= rl;
                    s.overhead *= rl;
                }
                if (st.coordMicrobatch)
                    s.microbatch = mb;
                s.step = step;
                fn(st.lane, std::move(s));
                continue;
            }
            for (long long l = 0; l < st.repeatLayer; ++l) {
                TraceSpan s = instanceSpan(ep.dev, st, ev, cats[i], t);
                if (st.coordMicrobatch)
                    s.microbatch = mb;
                s.layer = l;
                s.step = step;
                fn(st.lane, std::move(s));
            }
        }
    });
}

/** Emit the full span stream (lanes and counters first) into @p tr. */
void
emitTrace(const EvaluatedPlan &ep, TraceSession &tr)
{
    std::map<std::string, int> lane_ids;
    for (const std::string &name : ep.plan.lanes)
        lane_ids[name] = tr.lane(name);
    for (const auto &kv : ep.plan.counters)
        tr.counterAdd(kv.first, kv.second);
    forEachStepSpan(ep, [&](const std::string &lane, TraceSpan s) {
        auto it = lane_ids.find(lane);
        if (it == lane_ids.end())
            it = lane_ids.emplace(lane, tr.lane(lane)).first;
        tr.emit(it->second, std::move(s));
    });
}

/** TrainingBreakdown field addressed by a category name. */
double *
breakdownField(TrainingBreakdown &t, const std::string &category)
{
    if (category == "forward") return &t.forward;
    if (category == "backward") return &t.backward;
    if (category == "recompute") return &t.recompute;
    if (category == "embedding") return &t.embedding;
    if (category == "tp-comm") return &t.tpComm;
    if (category == "cp-comm") return &t.cpComm;
    if (category == "ep-comm") return &t.epComm;
    if (category == "pp-comm") return &t.ppComm;
    if (category == "dp-comm") return &t.dpComm;
    if (category == "bubble") return &t.bubble;
    if (category == "optimizer") return &t.optimizer;
    return nullptr;
}

/** PhaseReport field accumulating the kernel time of bucket @p b. */
double PhaseReport::*
bucketField(BoundBucket b)
{
    switch (b) {
      case BoundBucket::GemmCompute:
        return &PhaseReport::computeBoundGemmTime;
      case BoundBucket::GemmMemory:
        return &PhaseReport::memoryBoundGemmTime;
      case BoundBucket::Other:
        break;
    }
    return &PhaseReport::otherKernelTime;
}

} // namespace

FoldedTraining
foldTraining(const EvaluatedPlan &ep, TraceSession *trace)
{
    FoldedTraining f;
    for (size_t i = 0; i < ep.plan.steps.size(); ++i) {
        const PlanStep &st = ep.plan.steps[i];
        const StepEval &ev = ep.evals[i];
        double *field = breakdownField(f.time, ev.category);
        if (field == nullptr)
            throw ConfigError("training plan step '" + st.name +
                              "' has unknown category '" + ev.category +
                              "'");
        *field += ev.total;
        if (st.kind == StepKind::Compute && !ev.partEsts.empty()) {
            if (st.name == "layer-fwd")
                f.layerForward = ev.partEsts[0];
            else if (st.name == "layer-bwd")
                f.layerBackward = ev.partEsts[0];
        }
    }
    if (trace != nullptr)
        emitTrace(ep, *trace);
    return f;
}

FoldedInference
foldInference(const EvaluatedPlan &ep, TraceSession *trace)
{
    FoldedInference f;
    // The phase report each step feeds, resolved once per step.
    std::vector<PhaseReport *> reports;
    reports.reserve(ep.plan.steps.size());
    for (const PlanStep &st : ep.plan.steps)
        reports.push_back(st.phase == "decode" ? &f.decode : &f.prefill);

    forEachStepToken(ep.plan, [&](size_t i, long long t) {
        const PlanStep &st = ep.plan.steps[i];
        const StepEval &ev = ep.evals[i];
        PhaseReport &r = *reports[i];
        const double inst = instances(st);
        const double total = tokenPerInstance(st, ev, t) * inst;
        if (st.kind == StepKind::Compute) {
            r.time += total;
            BoundBucket b = ev.bucket;
            if (st.contextDependent) {
                const TokenCost &c = ev.tokens[t];
                r.overheadTime += c.overhead * inst;
                r.memoryTime += c.dramTime * inst;
                b = c.bucket;
            } else {
                const KernelEstimate &est = ev.partEsts[0];
                r.overheadTime += est.overhead * inst;
                if (!est.memTimePerLevel.empty())
                    r.memoryTime += est.memTimePerLevel[0] * inst;
            }
            // Bound-type buckets include each kernel's launch
            // overhead, as in the paper's per-kernel accounting (a
            // 3 us per-head attention kernel counts as memory-bound
            // time even though its cost is launch-dominated).
            r.*bucketField(b) += total;
        } else if (st.kind == StepKind::Collective) {
            r.commTime += total;
            r.time += total;
        }
    });
    if (trace != nullptr)
        emitTrace(ep, *trace);
    return f;
}

std::vector<KernelAggregate>
kernelAggregates(const EvaluatedPlan &ep)
{
    struct Entry
    {
        KernelAggregate agg;
        std::map<std::string, double> boundTime;
    };
    std::map<std::string, Entry> byKey;
    forEachStepSpan(ep, [&](const std::string &lane, const TraceSpan &s) {
        if (!s.isKernel())
            return;
        const std::string key = lane + "/" + s.name;
        Entry &e = byKey[key];
        if (e.agg.count == 0) {
            e.agg.key = key;
            e.agg.category = s.category;
        }
        ++e.agg.count;
        e.agg.time += s.duration;
        e.agg.flops += s.flops;
        e.agg.dramBytes += s.dramBytes();
        e.agg.overhead += s.overhead;
        e.boundTime[s.bound] += s.duration;
    });

    std::vector<KernelAggregate> out;
    out.reserve(byKey.size());
    for (auto &kv : byKey) {
        // A kernel whose bound class varies within the run (e.g. a
        // decode GEMV flipping DRAM -> L2 as the context grows) is
        // labeled by its time-dominant class; ties break
        // lexicographically so the label is deterministic.
        Entry &e = kv.second;
        double best = -1.0;
        for (const auto &bt : e.boundTime)
            if (bt.second > best) {
                best = bt.second;
                e.agg.bound = bt.first;
            }
        out.push_back(std::move(e.agg));
    }
    return out;
}

} // namespace plan
} // namespace optimus
