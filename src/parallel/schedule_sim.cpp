#include "parallel/schedule_sim.h"

#include <algorithm>
#include <string>

#include "trace/trace.h"
#include "util/error.h"

namespace optimus {

namespace {

/** Work unit identifier on the virtual pipeline. */
struct Unit
{
    int chunk = 0;            ///< virtual stage index on this device
    long long microbatch = 0;
    bool backward = false;
};

/**
 * Megatron ordering of forward units for one device: microbatches in
 * groups of p, each group sweeping the device's chunks in ascending
 * order. Backward mirrors it with descending chunks.
 */
std::vector<Unit>
unitStream(int p, long long m, int v, bool backward)
{
    std::vector<Unit> out;
    out.reserve(static_cast<size_t>(m) * v);
    for (long long g = 0; g < m; g += p) {
        long long hi = std::min<long long>(m, g + p);
        for (int c = 0; c < v; ++c) {
            int chunk = backward ? v - 1 - c : c;
            for (long long i = g; i < hi; ++i)
                out.push_back({chunk, i, backward});
        }
    }
    return out;
}

/** Per-device execution order implementing the schedule. */
std::vector<Unit>
deviceOrder(const ScheduleSimParams &prm, int s)
{
    const int p = prm.stages;
    const int v = prm.virtualStages;
    const long long total = prm.microbatches * v;

    std::vector<Unit> fwd = unitStream(p, prm.microbatches, v, false);
    std::vector<Unit> bwd = unitStream(p, prm.microbatches, v, true);

    std::vector<Unit> order;
    order.reserve(2 * total);

    if (prm.schedule == PipelineSchedule::GPipe) {
        order.insert(order.end(), fwd.begin(), fwd.end());
        order.insert(order.end(), bwd.begin(), bwd.end());
        return order;
    }

    // 1F1B warmup depth (Megatron): deeper for earlier stages, plus
    // a full sweep of the extra virtual stages when interleaving.
    long long warmup = (v > 1)
                           ? (long long)(p - 1 - s) * 2 +
                                 (long long)(v - 1) * p
                           : (long long)(p - 1 - s);
    warmup = std::min(warmup, total);

    size_t fi = 0, bi = 0;
    for (long long k = 0; k < warmup; ++k)
        order.push_back(fwd[fi++]);
    while (fi < fwd.size()) {
        order.push_back(fwd[fi++]);
        order.push_back(bwd[bi++]);
    }
    while (bi < bwd.size())
        order.push_back(bwd[bi++]);
    return order;
}

} // namespace

ScheduleSimResult
simulatePipeline(const ScheduleSimParams &prm)
{
    checkPositive((long long)prm.stages, "stages");
    checkPositive(prm.microbatches, "microbatches");
    checkPositive((long long)prm.virtualStages, "virtualStages");
    checkPositive(prm.forwardTime, "forwardTime");
    checkPositive(prm.backwardTime, "backwardTime");
    checkConfig(prm.p2pTime >= 0.0, "p2pTime must be non-negative");
    checkConfig(prm.schedule == PipelineSchedule::Interleaved1F1B ||
                    prm.virtualStages == 1,
                "virtualStages > 1 requires the interleaved schedule");

    const int p = prm.stages;
    const int v = prm.virtualStages;
    const long long m = prm.microbatches;
    const int positions = p * v;  // virtual pipeline depth
    const double tf = prm.forwardTime / v;
    const double tb = prm.backwardTime / v;

    // end[dir][pos][mb] = completion time, or <0 if not yet run.
    auto idx = [&](int pos, long long i) {
        return static_cast<size_t>(pos) * m + i;
    };
    std::vector<double> fwd_end(static_cast<size_t>(positions) * m,
                                -1.0);
    std::vector<double> bwd_end(static_cast<size_t>(positions) * m,
                                -1.0);

    std::vector<std::vector<Unit>> orders;
    std::vector<size_t> cursor(p, 0);
    std::vector<double> device_time(p, 0.0);
    orders.reserve(p);
    for (int s = 0; s < p; ++s)
        orders.push_back(deviceOrder(prm, s));

    ScheduleSimResult result;
    result.events.reserve(static_cast<size_t>(positions) * m * 2);

    // Two directions x p devices x v chunks x m microbatches.
    long long remaining = 2LL * p * v * m;
    bool progress = true;
    while (remaining > 0) {
        checkConfig(progress,
                    "schedule deadlocked (internal ordering bug)");
        progress = false;
        for (int s = 0; s < p; ++s) {
            while (cursor[s] < orders[s].size()) {
                const Unit &u = orders[s][cursor[s]];
                // Device s runs virtual position s + chunk*p.
                int pos = s + u.chunk * p;
                double ready;
                if (!u.backward) {
                    if (pos == 0) {
                        ready = 0.0;
                    } else {
                        int prev_pos = pos - 1;
                        double dep =
                            fwd_end[idx(prev_pos, u.microbatch)];
                        if (dep < 0.0)
                            break;  // dependency not yet executed
                        ready = dep + prm.p2pTime;
                    }
                } else {
                    if (pos == positions - 1) {
                        double dep =
                            fwd_end[idx(pos, u.microbatch)];
                        if (dep < 0.0)
                            break;
                        ready = dep;
                    } else {
                        double dep =
                            bwd_end[idx(pos + 1, u.microbatch)];
                        if (dep < 0.0)
                            break;
                        ready = dep + prm.p2pTime;
                    }
                }
                double start = std::max(device_time[s], ready);
                double dur = u.backward ? tb : tf;
                double end = start + dur;
                device_time[s] = end;
                (u.backward ? bwd_end : fwd_end)[idx(pos,
                                                     u.microbatch)] =
                    end;
                result.events.push_back({s, u.microbatch, u.chunk,
                                         u.backward, start, end});
                ++cursor[s];
                --remaining;
                progress = true;
            }
        }
    }

    for (int s = 0; s < p; ++s)
        result.makespan = std::max(result.makespan, device_time[s]);
    result.busyPerStage =
        double(m) * (prm.forwardTime + prm.backwardTime);
    result.bubbleFraction =
        (result.makespan - result.busyPerStage) / result.busyPerStage;
    return result;
}

void
traceSchedule(const ScheduleSimResult &result, TraceSession &session)
{
    // Each stage's events come out in time order, and an event starts
    // exactly when its stage went idle or later, so a gap is 0 or a
    // bubble, and the lane cursor follows the simulated start times.
    std::vector<int> lanes;
    std::vector<double> idle_since;
    for (const SimEvent &e : result.events) {
        while (static_cast<int>(lanes.size()) <= e.stage) {
            lanes.push_back(session.lane(
                "stage" + std::to_string(lanes.size())));
            idle_since.push_back(0.0);
        }
        const int lane = lanes[e.stage];
        const double gap = e.start - idle_since[e.stage];
        if (gap > 0.0)
            session.emit(lane, "bubble", "bubble", gap);
        session.emit(lane,
                     std::string(e.backward ? "B" : "F") + " mb" +
                         std::to_string(e.microbatch) + " c" +
                         std::to_string(e.chunk),
                     e.backward ? "backward" : "forward",
                     e.end - e.start);
        idle_since[e.stage] = e.end;
    }
}

} // namespace optimus
