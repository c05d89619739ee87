#include "spans.h"

#include <algorithm>
#include <utility>

namespace perfbench {

namespace {

/** Innermost open span on this thread (-1 = none). */
thread_local int tl_innermost = -1;

} // namespace

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

int
Tracer::open(const std::string &name, int parent)
{
    double t = seconds(epoch_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(SpanRecord{name, parent, t, -1.0});
    return static_cast<int>(spans_.size()) - 1;
}

void
Tracer::close(int id)
{
    double t = seconds(epoch_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = t;
}

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    std::lock_guard<std::mutex> lock(mu_);

    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const SpanRecord &s : spans_)
        if (s.parent >= 0 && s.end >= 0.0)
            children[static_cast<size_t>(s.parent)].emplace_back(
                s.start, s.end);

    std::map<std::string, SpanTotals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        if (s.end < 0.0)
            continue;
        // Union of the child intervals, clipped to this span.
        std::vector<std::pair<double, double>> &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = s.start;
        for (const auto &[a, b] : kids) {
            double lo = std::max(a, reach);
            double hi = std::min(b, s.end);
            if (hi > lo)
                covered += hi - lo;
            reach = std::max(reach, std::min(b, s.end));
        }
        SpanTotals &t = out[s.name];
        t.count += 1;
        t.duration += s.end - s.start;
        t.self += (s.end - s.start) - covered;
    }
    return out;
}

Span::Span(Tracer *tracer, const char *name, int fallback_parent)
    : tracer_(tracer)
{
    if (tracer_ == nullptr)
        return;
    int parent = tl_innermost >= 0 ? tl_innermost : fallback_parent;
    id_ = tracer_->open(name, parent);
    outer_ = tl_innermost;
    tl_innermost = id_;
}

Span::~Span()
{
    if (tracer_ == nullptr)
        return;
    tracer_->close(id_);
    tl_innermost = outer_;
}

} // namespace perfbench
