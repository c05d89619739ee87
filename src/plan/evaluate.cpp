/**
 * @file
 * The single evaluator: maps every PlanStep through the roofline
 * (workload/graph.h) and collective (comm/collective.h) models.
 *
 * Every step is priced directly, except that a caller may pass a
 * shared EvalCache: compute parts are then memoized under a binary
 * signature of their Op fields. Cached values are deterministic, so
 * the cache cannot change results at any thread count. A plan keeps
 * no memo of its own: the few parts that repeat within one plan (the
 * recompute step's forward op list) cost less to re-price than a
 * signature lookup per part. The training planner needs no memo
 * either: it prices each compute class once and hands the estimates
 * to the second evaluatePlan overload, which runs them through the
 * same step loop as freshly priced ones.
 *
 * The per-token ops of a context-dependent decode token range never
 * enter the cache: their contexts almost never repeat. Each is built
 * when it is priced, and only its TokenCost and bytes are kept.
 */

#include "plan/plan.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

namespace optimus {
namespace plan {

bool
EvalCache::lookup(const std::string &key, KernelEstimate *out) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end())
        return false;
    *out = it->second;
    return true;
}

void
EvalCache::insert(const std::string &key, const KernelEstimate &est)
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.emplace(key, est);
}

size_t
EvalCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

namespace {

/**
 * Fixed-size record of every Op field evaluateOp reads, each widened
 * to 64 bits (doubles as their bit patterns) so the record has no
 * padding and two records are equal exactly when the fields are.
 * Labels are excluded: they never affect the numbers.
 */
struct OpRecord
{
    std::uint64_t f[19];
};
static_assert(sizeof(OpRecord) == 19 * sizeof(std::uint64_t));

std::uint64_t
bits(long long v)
{
    return static_cast<std::uint64_t>(v);
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

OpRecord
opRecord(const Op &op)
{
    return {{bits(static_cast<long long>(op.kind)),
             bits(op.gemm.m),
             bits(op.gemm.n),
             bits(op.gemm.k),
             bits(static_cast<long long>(op.gemm.precision)),
             bits(op.count),
             bits(op.launchCount),
             bits(op.rows),
             bits(op.cols),
             bits(op.elements),
             bits(op.flopsPerElement),
             bits(op.fusedFlops),
             bits(op.fusedDramBytes),
             bits(op.fusedOnChipBytes),
             bits(static_cast<long long>(op.fusedPrecision)),
             bits(op.streamBytes),
             bits(op.streamFlops),
             bits(static_cast<long long>(op.streamPrecision)),
             bits(static_cast<long long>(op.fused))}};
}

/**
 * Binary signature of an op list on one device: the op count, one
 * OpRecord per op, then the device name. Two signatures are equal
 * exactly when every field is bit-equal.
 */
std::string
opsSignature(const Device &dev, const Op *ops, size_t n)
{
    const std::uint64_t count = n;
    std::string sig(sizeof count + n * sizeof(OpRecord) + dev.name.size(),
                    '\0');
    char *out = sig.data();
    std::memcpy(out, &count, sizeof count);
    out += sizeof count;
    for (size_t i = 0; i < n; ++i, out += sizeof(OpRecord)) {
        const OpRecord r = opRecord(ops[i]);
        std::memcpy(out, &r, sizeof r);
    }
    std::memcpy(out, dev.name.data(), dev.name.size());
    return sig;
}

/**
 * One compute part: priced directly, or through @p cache when one is
 * given. A single op goes through evaluateOp directly so the estimate
 * is bit-identical to the per-kernel detail path.
 */
KernelEstimate
evaluatePart(const Device &dev, const ComputePart &part, EvalCache *cache)
{
    const bool single = part.ops.size() == 1;
    auto price = [&] {
        return single ? evaluateOp(dev, part.ops[0])
                      : evaluateOps(dev, part.ops, part.label);
    };
    KernelEstimate est;
    if (cache == nullptr) {
        est = price();
    } else {
        const std::string key =
            opsSignature(dev, part.ops.data(), part.ops.size());
        if (!cache->lookup(key, &est)) {
            est = price();
            cache->insert(key, est);
        }
    }
    est.kernel = single ? part.ops[0].name : part.label;
    return est;
}

} // namespace

BoundBucket
boundBucket(const Op &op, const KernelEstimate &est)
{
    if (op.kind != OpKind::Gemm && op.kind != OpKind::FusedAttention)
        return BoundBucket::Other;
    return est.computeBound() ? BoundBucket::GemmCompute
                              : BoundBucket::GemmMemory;
}

std::string
boundCategory(const std::string &phase, BoundBucket b)
{
    switch (b) {
      case BoundBucket::GemmCompute: return phase + "-gemm-compute";
      case BoundBucket::GemmMemory: return phase + "-gemm-memory";
      case BoundBucket::Other: break;
    }
    return phase + "-other";
}

namespace {

/**
 * A compute step's per-instance and total time from its part
 * estimates (ev.partEsts, one per part): each part's time scaled,
 * then summed or maxed by st.combine, then repeated.
 */
void
combineParts(const PlanStep &st, double instances, double tokens,
             StepEval &ev)
{
    double combined = 0.0;
    for (size_t pi = 0; pi < st.parts.size(); ++pi) {
        const double scaled = ev.partEsts[pi].time * st.parts[pi].scale;
        if (pi == 0)
            combined = scaled;
        else if (st.combine == PartCombine::Max)
            combined = std::max(combined, scaled);
        else
            combined += scaled;
    }
    ev.perInstance = combined;
    ev.total = ev.perInstance * instances * tokens;
}

/**
 * The step loop behind both evaluatePlan overloads. Step i <
 * priced.size() takes its evaluation from priced[i] and only goes
 * through combineParts; every other step is priced here.
 */
EvaluatedPlan
evaluateSteps(KernelPlan plan, const System &sys,
              const EvaluateOptions &opts,
              const std::vector<StepEval> &priced)
{
    EvaluatedPlan ep;
    ep.dev = sys.device;
    ep.evals.reserve(plan.steps.size());

    // Running busy time of the steps evaluated so far — the quantity
    // the pipeline-bubble step scales (the bubble is lowered after
    // every per-iteration step and before DP/optimizer).
    double busy = 0.0;

    for (size_t i = 0; i < plan.steps.size(); ++i) {
        const PlanStep &st = plan.steps[i];
        const double instances =
            double(st.repeatLayer) * double(st.repeatMicrobatch);
        const double tokens = double(st.repeatToken);

        if (i < priced.size()) {
            StepEval ev = priced[i];
            combineParts(st, instances, tokens, ev);
            busy += ev.total;
            ep.evals.push_back(std::move(ev));
            continue;
        }

        StepEval ev;
        ev.category = st.category;
        switch (st.kind) {
          case StepKind::Compute: {
            if (st.contextDependent) {
                // Build and price every token's op; keep its costs.
                const size_t n = size_t(st.repeatToken);
                ev.tokens.reserve(n);
                ev.tokenBytes.reserve(n * ep.dev.mem.size());
                for (long long t = 0; t < st.repeatToken; ++t) {
                    const Op op =
                        st.attention.op(st.attentionOp, st.context + t);
                    const KernelEstimate est = evaluateOp(ep.dev, op);
                    ev.total += est.time * instances;
                    TokenCost c;
                    c.time = est.time;
                    c.overhead = est.overhead;
                    c.flops = est.flops;
                    c.dramTime = est.memTimePerLevel[0];
                    c.boundLevel = est.boundLevel;
                    if (st.bucketByBound)
                        c.bucket = boundBucket(op, est);
                    ev.tokens.push_back(c);
                    ev.tokenBytes.insert(ev.tokenBytes.end(),
                                         est.bytesPerLevel.begin(),
                                         est.bytesPerLevel.end());
                }
                ev.perInstance = ev.total / (instances * tokens);
                if (st.bucketByBound) {
                    ev.bucket = ev.tokens[0].bucket;
                    ev.category = boundCategory(st.phase, ev.bucket);
                }
                break;
            }
            ev.partEsts.reserve(st.parts.size());
            for (const ComputePart &part : st.parts)
                ev.partEsts.push_back(
                    evaluatePart(ep.dev, part, opts.cache));
            combineParts(st, instances, tokens, ev);
            // Bound-bucketed steps are single-op by construction.
            if (st.bucketByBound) {
                ev.bucket = boundBucket(st.parts[0].ops[0], ev.partEsts[0]);
                ev.category = boundCategory(st.phase, ev.bucket);
            }
            if (opts.detail && !st.detailLane.empty())
                for (const Op &op : st.parts[0].ops)
                    ev.opEsts.push_back(evaluateOp(ep.dev, op));
            break;
          }
          case StepKind::Collective:
            ev.coll = systemCollective(sys, st.collective, st.volume,
                                       st.groupSize, st.scope,
                                       st.algorithm);
            ev.perInstance =
                (ev.coll.time * st.callsPerInstance) *
                st.exposedFraction;
            ev.total = ev.perInstance * instances * tokens;
            break;
          case StepKind::Synthetic:
            if (st.synthetic == SyntheticKind::Bubble)
                ev.total = busy * st.syntheticValue;
            else
                ev.total = st.syntheticValue /
                           (ep.dev.dram().bandwidth *
                            ep.dev.dram().utilization);
            ev.perInstance = ev.total;
            break;
        }

        busy += ev.total;
        ep.evals.push_back(std::move(ev));
    }

    ep.plan = std::move(plan);
    return ep;
}

} // namespace

EvaluatedPlan
evaluatePlan(KernelPlan plan, const System &sys,
             const EvaluateOptions &opts)
{
    return evaluateSteps(std::move(plan), sys, opts, {});
}

EvaluatedPlan
evaluatePlan(KernelPlan plan, const System &sys,
             const std::vector<StepEval> &priced)
{
    return evaluateSteps(std::move(plan), sys, {}, priced);
}

} // namespace plan
} // namespace optimus
