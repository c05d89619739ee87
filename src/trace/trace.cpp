#include "trace/trace.h"

#include <algorithm>

namespace optimus {

TraceSession::TraceSession(TraceSession &&other) noexcept
{
    std::lock_guard<std::mutex> lock(other.mu_);
    lanes_ = std::move(other.lanes_);
    spans_ = std::move(other.spans_);
    samples_ = std::move(other.samples_);
    counters_ = std::move(other.counters_);
    laneIndex_ = std::move(other.laneIndex_);
}

TraceSession &
TraceSession::operator=(TraceSession &&other) noexcept
{
    if (this != &other) {
        std::scoped_lock lock(mu_, other.mu_);
        lanes_ = std::move(other.lanes_);
        spans_ = std::move(other.spans_);
        samples_ = std::move(other.samples_);
        counters_ = std::move(other.counters_);
        laneIndex_ = std::move(other.laneIndex_);
    }
    return *this;
}

int
TraceSession::laneLocked(const std::string &name)
{
    auto it = laneIndex_.find(name);
    if (it != laneIndex_.end())
        return it->second;
    int id = static_cast<int>(lanes_.size());
    lanes_.push_back(TraceLane{name, 0.0});
    laneIndex_[name] = id;
    return id;
}

int
TraceSession::lane(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    return laneLocked(name);
}

double
TraceSession::emit(int lane_id, TraceSpan span)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (lanes_.empty())
        laneLocked("default");
    lane_id = std::clamp(lane_id, 0,
                         static_cast<int>(lanes_.size()) - 1);
    TraceLane &l = lanes_[static_cast<size_t>(lane_id)];
    span.lane = lane_id;
    span.start = l.cursor;
    l.cursor += span.duration;
    spans_.push_back(std::move(span));
    return spans_.back().start;
}

double
TraceSession::emit(int lane_id, const std::string &name,
                   const std::string &category, double duration)
{
    TraceSpan s;
    s.name = name;
    s.category = category;
    s.duration = duration;
    return emit(lane_id, std::move(s));
}

void
TraceSession::counterAdd(const std::string &name, double delta)
{
    std::lock_guard<std::mutex> lock(mu_);
    double v = counters_[name] + delta;
    counters_[name] = v;
    samples_.push_back(CounterSample{name, v});
}

void
TraceSession::counterSet(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mu_);
    counters_[name] = value;
    samples_.push_back(CounterSample{name, value});
}

double
TraceSession::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

void
TraceSession::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
    samples_.clear();
    counters_.clear();
    for (TraceLane &l : lanes_)
        l.cursor = 0.0;
}

std::map<std::string, double>
TraceSession::categoryTotals() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, double> totals;
    for (const TraceSpan &s : spans_)
        totals[s.category] += s.duration;
    return totals;
}

double
TraceSession::makespan() const
{
    std::lock_guard<std::mutex> lock(mu_);
    double end = 0.0;
    for (const TraceLane &l : lanes_)
        end = std::max(end, l.cursor);
    return end;
}

TraceSpan
kernelSpan(const Device &dev, const std::string &name,
           const std::string &category, const KernelEstimate &est)
{
    TraceSpan s;
    s.name = name;
    s.category = category;
    s.duration = est.time;
    s.flops = est.flops;
    s.bytesPerLevel = est.bytesPerLevel;
    s.overhead = est.overhead;
    s.bound = boundLevelName(dev, est.boundLevel);
    return s;
}

} // namespace optimus
