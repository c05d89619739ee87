#include "dse/search.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "exec/exec.h"
#include "lint/lint.h"
#include "trace/trace.h"
#include "util/error.h"

namespace optimus {

namespace {

double
clampFraction(double v, const DseOptions &opts)
{
    return std::clamp(v, opts.minFraction, opts.maxFraction);
}

} // namespace

DseResult
optimizeAllocation(const TechConfig &tech,
                   const DeviceObjective &objective,
                   const DseOptions &opts, const UArchCalibration &cal)
{
    checkConfig(static_cast<bool>(objective),
                "DSE needs an objective function");
    checkPositive(static_cast<long long>(opts.gridSteps), "gridSteps");

    DseResult best;
    best.objective = std::numeric_limits<double>::infinity();
    int evals = 0;
    TraceSession *tr = opts.trace;
    const bool tron = tr != nullptr;

    struct Eval
    {
        double value = std::numeric_limits<double>::infinity();
        bool pruned = false;
    };

    // Pure single-candidate evaluation: no shared state, safe to fan
    // out. A candidate that fails structural lint scores infinitely
    // bad instead of throwing mid-search.
    auto evaluateOne = [&](const UArchAllocation &alloc) {
        Eval e;
        Device dev = buildDevice(tech, alloc, cal);
        if (!lint::isLegalDevice(dev)) {
            e.pruned = true;
            return e;
        }
        e.value = objective(dev);
        return e;
    };

    // Evaluate a batch of candidates through the exec layer; results
    // come back slot-ordered so every downstream reduction is
    // independent of the thread count. Counters are batched: totals
    // stay exact, only the sample granularity coarsens.
    auto evaluateBatch = [&](const std::vector<UArchAllocation> &
                                 batch) {
        std::vector<Eval> out = exec::parallelMap(
            static_cast<long long>(batch.size()), opts.threads,
            [&](long long i) {
                return evaluateOne(batch[static_cast<size_t>(i)]);
            });
        evals += static_cast<int>(batch.size());
        if (tron) {
            tr->counterAdd("dse/evaluations",
                           double(batch.size()));
            long long pruned = 0;
            for (const Eval &e : out)
                pruned += e.pruned ? 1 : 0;
            if (pruned > 0)
                tr->counterAdd("dse/pruned", double(pruned));
        }
        return out;
    };

    auto progress = [&](int round, double value, double step) {
        if (tron)
            tr->counterSet("dse/best-objective", value);
        if (opts.onRound) {
            DseRound r;
            r.round = round;
            r.bestObjective = value;
            r.evaluations = evals;
            r.step = step;
            opts.onRound(r);
        }
    };

    auto consider = [&](const UArchAllocation &alloc, double value) {
        if (value < best.objective) {
            best.objective = value;
            best.allocation = alloc;
        }
    };

    // Coarse multi-start grid, evaluated as one batch and reduced in
    // (i, j) loop order — identical winner to the serial scan.
    std::vector<UArchAllocation> grid;
    grid.reserve(static_cast<size_t>(opts.gridSteps) *
                 static_cast<size_t>(opts.gridSteps));
    for (int i = 1; i <= opts.gridSteps; ++i) {
        for (int j = 1; j <= opts.gridSteps; ++j) {
            UArchAllocation a;
            a.computeAreaFraction = clampFraction(
                double(i) / (opts.gridSteps + 1), opts);
            a.computePowerFraction = clampFraction(
                double(j) / (opts.gridSteps + 1), opts);
            grid.push_back(a);
        }
    }
    std::vector<Eval> grid_vals = evaluateBatch(grid);
    for (size_t g = 0; g < grid.size(); ++g)
        consider(grid[g], grid_vals[g].value);
    progress(-1, best.objective, opts.initialStep);

    // Compass-style coordinate descent with step halving from the
    // best grid point: each round probes +/-step on both axes *from
    // the same base point* (the four probes are independent, so they
    // fan out), then moves to the best strictly-improving probe.
    // Probes are reduced in axis-major, +/- order, so the chosen move
    // — and therefore the whole descent — is deterministic at every
    // thread count.
    UArchAllocation current = best.allocation;
    double value = best.objective;
    double step = opts.initialStep;
    for (int round = 0; round < opts.refineRounds; ++round) {
        std::vector<UArchAllocation> probes;
        probes.reserve(4);
        for (int axis = 0; axis < 2; ++axis) {
            for (double dir : {+1.0, -1.0}) {
                UArchAllocation trial = current;
                double &frac = (axis == 0)
                                   ? trial.computeAreaFraction
                                   : trial.computePowerFraction;
                frac = clampFraction(frac + dir * step, opts);
                probes.push_back(trial);
            }
        }
        std::vector<Eval> probe_vals = evaluateBatch(probes);
        bool improved = false;
        for (size_t p = 0; p < probes.size(); ++p) {
            if (probe_vals[p].value < value) {
                current = probes[p];
                value = probe_vals[p].value;
                improved = true;
            }
        }
        consider(current, value);
        progress(round, best.objective, step);
        if (!improved)
            step *= 0.5;
        if (step < 1e-3)
            break;
    }

    best.device = buildDevice(tech, best.allocation, cal);
    best.evaluations = evals;
    return best;
}

} // namespace optimus
