#include "report/diff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

namespace optimus {
namespace report {

namespace {

/** Deltas smaller than this are float noise, never drift. */
constexpr double kAbsFloor = 1e-12;

double
relPct(double a, double b)
{
    if (a == b)
        return 0.0;
    if (a == 0.0)
        return b > 0.0 ? 1e300 : -1e300;
    return 100.0 * (b - a) / std::fabs(a);
}

/** Equal, or both non-finite (written as null, read back as NaN). */
bool
unchanged(double a, double b)
{
    return a == b || (!std::isfinite(a) && !std::isfinite(b));
}

bool
beyond(double a, double b, double tol_pct)
{
    if (!std::isfinite(a) || !std::isfinite(b))
        return !unchanged(a, b);
    if (std::fabs(b - a) <= kAbsFloor)
        return false;
    return std::fabs(relPct(a, b)) > tol_pct;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

std::string
pct(double v)
{
    if (std::fabs(v) >= 1e299)
        return v > 0 ? "+new" : "-new";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%+.4g%%", v);
    return buf;
}

/**
 * Diff two name->value maps into MetricDelta entries (changed values
 * only, union of keys, in @p a-then-@p b order without duplicates).
 */
template <typename Lookup>
void
diffNumericMaps(const std::vector<std::string> &keys, const Lookup &ga,
                const Lookup &gb, double tol_pct,
                std::vector<MetricDelta> &out)
{
    for (const std::string &key : keys) {
        const double *va = ga(key);
        const double *vb = gb(key);
        MetricDelta d;
        d.key = key;
        if (va != nullptr && vb != nullptr) {
            if (unchanged(*va, *vb))
                continue;
            d.a = *va;
            d.b = *vb;
            d.beyondTolerance = beyond(*va, *vb, tol_pct);
        } else if (va != nullptr) {
            d.a = *va;
            d.onlyA = true;
            d.beyondTolerance = true;
        } else {
            d.b = *vb;
            d.onlyB = true;
            d.beyondTolerance = true;
        }
        out.push_back(std::move(d));
    }
}

std::vector<std::string>
unionKeys(const std::vector<std::string> &a,
          const std::vector<std::string> &b)
{
    std::vector<std::string> keys = a;
    std::set<std::string> seen(a.begin(), a.end());
    for (const std::string &k : b)
        if (seen.insert(k).second)
            keys.push_back(k);
    return keys;
}

} // namespace

double
MetricDelta::deltaPct() const
{
    return relPct(a, b);
}

double
KernelDelta::timeDeltaPct() const
{
    return relPct(a.time, b.time);
}

std::string
KernelDelta::component() const
{
    if (onlyA)
        return "removed";
    if (onlyB)
        return "added";
    if (boundFlip)
        return "bound";
    if (a.count != b.count)
        return "count";
    std::string parts;
    auto add = [&parts](const char *name) {
        if (!parts.empty())
            parts += "+";
        parts += name;
    };
    if (std::fabs(b.flops - a.flops) > kAbsFloor)
        add("flops");
    if (std::fabs(b.dramBytes - a.dramBytes) > kAbsFloor)
        add("bytes");
    if (std::fabs(b.overhead - a.overhead) > kAbsFloor)
        add("overhead");
    if (parts.empty() && std::fabs(b.time - a.time) > kAbsFloor)
        return "throughput";
    return parts;
}

bool
RunDiff::empty() const
{
    return comparable && !schemaMismatch && metrics.empty() &&
           kernels.empty() && validation.empty() && counters.empty() &&
           attrChanges.empty();
}

bool
RunDiff::drifted() const
{
    if (!comparable || schemaMismatch || !attrChanges.empty())
        return true;
    for (const MetricDelta &d : metrics)
        if (d.beyondTolerance)
            return true;
    for (const KernelDelta &d : kernels)
        if (d.beyondTolerance || d.boundFlip || d.onlyA || d.onlyB)
            return true;
    for (const MetricDelta &d : validation)
        if (d.beyondTolerance)
            return true;
    // Counters are informational only.
    return false;
}

RunDiff
diffRuns(const RunRecord &a, const RunRecord &b,
         const DiffOptions &opts)
{
    RunDiff diff;
    diff.fingerprintA = a.fingerprint;
    diff.fingerprintB = b.fingerprint;
    diff.comparable = a.fingerprint == b.fingerprint;
    diff.schemaMismatch = a.schemaVersion != b.schemaVersion;

    // ---- Metrics ----
    {
        std::vector<std::string> ka, kb;
        for (const auto &kv : a.metrics)
            ka.push_back(kv.first);
        for (const auto &kv : b.metrics)
            kb.push_back(kv.first);
        auto lookup = [](const RunRecord &r) {
            return [&r](const std::string &key) -> const double * {
                for (const auto &kv : r.metrics)
                    if (kv.first == key)
                        return &kv.second;
                return nullptr;
            };
        };
        diffNumericMaps(unionKeys(ka, kb), lookup(a), lookup(b),
                        opts.tolPct, diff.metrics);
    }

    // ---- Kernels (stable-identity match) ----
    {
        std::map<std::string, const KernelStat *> ia, ib;
        std::vector<std::string> ka, kb;
        for (const KernelStat &k : a.kernels) {
            ia[k.key] = &k;
            ka.push_back(k.key);
        }
        for (const KernelStat &k : b.kernels) {
            ib[k.key] = &k;
            kb.push_back(k.key);
        }
        for (const std::string &key : unionKeys(ka, kb)) {
            auto pa = ia.find(key);
            auto pb = ib.find(key);
            KernelDelta d;
            d.key = key;
            if (pa != ia.end() && pb != ib.end()) {
                d.a = *pa->second;
                d.b = *pb->second;
                d.boundFlip = d.a.bound != d.b.bound;
                d.beyondTolerance =
                    beyond(d.a.time, d.b.time, opts.tolPct);
                // Unchanged in every recorded dimension: not a diff.
                if (!d.boundFlip && unchanged(d.a.time, d.b.time) &&
                    unchanged(d.a.flops, d.b.flops) &&
                    unchanged(d.a.dramBytes, d.b.dramBytes) &&
                    unchanged(d.a.overhead, d.b.overhead) &&
                    d.a.count == d.b.count)
                    continue;
            } else if (pa != ia.end()) {
                d.a = *pa->second;
                d.onlyA = true;
            } else {
                d.b = *pb->second;
                d.onlyB = true;
            }
            diff.kernels.push_back(std::move(d));
        }
    }

    // ---- Validation rows (match by name, gate on predictions) ----
    {
        std::vector<std::string> ka, kb;
        std::map<std::string, const ValidationRow *> ia, ib;
        for (const ValidationRow &r : a.validation) {
            ia[r.name] = &r;
            ka.push_back(r.name);
        }
        for (const ValidationRow &r : b.validation) {
            ib[r.name] = &r;
            kb.push_back(r.name);
        }
        auto lookup = [](const std::map<std::string,
                                        const ValidationRow *> &m) {
            return [&m](const std::string &key) -> const double * {
                auto it = m.find(key);
                return it == m.end() ? nullptr
                                     : &it->second->predicted;
            };
        };
        diffNumericMaps(unionKeys(ka, kb), lookup(ia), lookup(ib),
                        opts.tolPct, diff.validation);
        for (const std::string &key : unionKeys(ka, kb)) {
            auto pa = ia.find(key);
            auto pb = ib.find(key);
            if (pa != ia.end() && pb != ib.end() &&
                !unchanged(pa->second->reference,
                           pb->second->reference))
                diff.attrChanges.push_back(
                    "validation row '" + key +
                    "' reference changed: " +
                    num(pa->second->reference) + " -> " +
                    num(pb->second->reference));
        }
    }

    // ---- Counters (informational) ----
    {
        std::vector<std::string> ka, kb;
        for (const auto &kv : a.counters)
            ka.push_back(kv.first);
        for (const auto &kv : b.counters)
            kb.push_back(kv.first);
        auto lookup = [](const std::map<std::string, double> &m) {
            return [&m](const std::string &key) -> const double * {
                auto it = m.find(key);
                return it == m.end() ? nullptr : &it->second;
            };
        };
        diffNumericMaps(unionKeys(ka, kb), lookup(a.counters),
                        lookup(b.counters), opts.tolPct,
                        diff.counters);
    }

    // ---- Attributes ----
    {
        std::map<std::string, std::string> ia(a.attrs.begin(),
                                              a.attrs.end()),
            ib(b.attrs.begin(), b.attrs.end());
        for (const auto &kv : ia) {
            auto it = ib.find(kv.first);
            if (it == ib.end())
                diff.attrChanges.push_back("attr '" + kv.first +
                                           "' removed (was '" +
                                           kv.second + "')");
            else if (it->second != kv.second)
                diff.attrChanges.push_back(
                    "attr '" + kv.first + "' changed: '" + kv.second +
                    "' -> '" + it->second + "'");
        }
        for (const auto &kv : ib)
            if (ia.find(kv.first) == ia.end())
                diff.attrChanges.push_back("attr '" + kv.first +
                                           "' added ('" + kv.second +
                                           "')");
    }

    return diff;
}

int
checkExitCode(const RunDiff &diff)
{
    return diff.drifted() ? 1 : 0;
}

std::string
diffText(const RunDiff &diff, const RunRecord &a, const RunRecord &b,
         const DiffOptions &opts)
{
    std::ostringstream os;
    auto describe = [&os](const char *tag, const RunRecord &r) {
        os << tag << ": " << r.label << " (" << r.kind << ", tool "
           << r.toolVersion << ", git " << r.gitSha << ", fingerprint "
           << r.fingerprint << ", " << r.threads << " thread"
           << (r.threads == 1 ? "" : "s") << ")\n";
    };
    describe("a", a);
    describe("b", b);

    if (diff.schemaMismatch)
        os << "SCHEMA MISMATCH: a is schema " << a.schemaVersion
           << ", b is schema " << b.schemaVersion << "\n";
    if (!diff.comparable)
        os << "CONFIG DRIFT: fingerprints differ ("
           << diff.fingerprintA << " vs " << diff.fingerprintB
           << ") — the runs evaluate different configs\n";

    if (diff.empty()) {
        os << "\nrecords are identical\n";
        return os.str();
    }

    if (!diff.metrics.empty()) {
        Table t({"metric", "a", "b", "delta", "flag"});
        for (const MetricDelta &d : diff.metrics) {
            t.beginRow()
                .cell(d.key)
                .cell(d.onlyA ? num(d.a) : d.onlyB ? "-" : num(d.a))
                .cell(d.onlyB ? num(d.b) : d.onlyA ? "-" : num(d.b))
                .cell(d.onlyA ? "removed"
                              : d.onlyB ? "added" : pct(d.deltaPct()))
                .cell(d.beyondTolerance ? "DRIFT" : "");
            t.endRow();
        }
        os << "\n";
        t.print(os);
    }

    // Attribute the total-time delta to its recorded components.
    if (a.hasMetric("time/total") && b.hasMetric("time/total") &&
        !unchanged(a.metric("time/total"), b.metric("time/total"))) {
        os << "\ntime/total delta "
           << num(b.metric("time/total") - a.metric("time/total"))
           << " s decomposes as:";
        for (const char *key :
             {"time/compute", "time/network", "time/other"}) {
            if (!a.hasMetric(key) && !b.hasMetric(key))
                continue;
            os << "  " << (key + 5) << " "
               << num(b.metric(key) - a.metric(key)) << " s";
        }
        os << "\n";
    }

    if (!diff.kernels.empty()) {
        Table t({"kernel", "t_a (s)", "t_b (s)", "delta", "component",
                 "bound", "flag"});
        for (const KernelDelta &d : diff.kernels) {
            t.beginRow()
                .cell(d.key)
                .cell(d.onlyB ? "-" : num(d.a.time))
                .cell(d.onlyA ? "-" : num(d.b.time))
                .cell(d.onlyA || d.onlyB ? "" : pct(d.timeDeltaPct()))
                .cell(d.component())
                .cell(d.boundFlip ? d.a.bound + " -> " + d.b.bound
                                  : (d.onlyB ? d.b.bound : d.a.bound))
                .cell(d.beyondTolerance || d.boundFlip || d.onlyA ||
                              d.onlyB
                          ? "DRIFT"
                          : "");
            t.endRow();
        }
        os << "\n";
        t.print(os);
    }

    if (!diff.validation.empty()) {
        Table t({"validation row", "pred_a", "pred_b", "delta",
                 "flag"});
        for (const MetricDelta &d : diff.validation) {
            t.beginRow()
                .cell(d.key)
                .cell(d.onlyB ? "-" : num(d.a))
                .cell(d.onlyA ? "-" : num(d.b))
                .cell(d.onlyA ? "removed"
                              : d.onlyB ? "added" : pct(d.deltaPct()))
                .cell(d.beyondTolerance ? "DRIFT" : "");
            t.endRow();
        }
        os << "\n";
        t.print(os);
    }

    if (!diff.counters.empty()) {
        Table t({"counter (informational)", "a", "b"});
        for (const MetricDelta &d : diff.counters) {
            t.beginRow()
                .cell(d.key)
                .cell(d.onlyB ? "-" : num(d.a))
                .cell(d.onlyA ? "-" : num(d.b));
            t.endRow();
        }
        os << "\n";
        t.print(os);
    }

    for (const std::string &c : diff.attrChanges)
        os << "\n" << c;
    if (!diff.attrChanges.empty())
        os << "\n";

    int gated = 0;
    for (const MetricDelta &d : diff.metrics)
        gated += d.beyondTolerance ? 1 : 0;
    for (const KernelDelta &d : diff.kernels)
        gated += (d.beyondTolerance || d.boundFlip || d.onlyA ||
                  d.onlyB)
                     ? 1
                     : 0;
    for (const MetricDelta &d : diff.validation)
        gated += d.beyondTolerance ? 1 : 0;
    os << "\n";
    if (diff.drifted())
        os << "DRIFT: " << gated << " value(s) beyond ±"
           << num(opts.tolPct) << "% tolerance"
           << (diff.attrChanges.empty() ? ""
                                        : " (plus attribute changes)")
           << (diff.comparable ? "" : " (plus config drift)") << "\n";
    else
        os << "within ±" << num(opts.tolPct) << "% tolerance ("
           << diff.metrics.size() + diff.kernels.size() +
                  diff.validation.size()
           << " sub-tolerance difference(s))\n";
    return os.str();
}

JsonValue
toJson(const RunDiff &diff)
{
    JsonValue j = JsonValue::object();
    j.set("comparable", JsonValue::boolean(diff.comparable));
    j.set("schema_mismatch",
          JsonValue::boolean(diff.schemaMismatch));
    j.set("fingerprint_a", JsonValue::string(diff.fingerprintA));
    j.set("fingerprint_b", JsonValue::string(diff.fingerprintB));
    j.set("drifted", JsonValue::boolean(diff.drifted()));

    auto metricArray = [](const std::vector<MetricDelta> &rows) {
        JsonValue arr = JsonValue::array();
        for (const MetricDelta &d : rows) {
            JsonValue e = JsonValue::object();
            e.set("key", JsonValue::string(d.key));
            if (!d.onlyB)
                e.set("a", JsonValue::number(d.a));
            if (!d.onlyA)
                e.set("b", JsonValue::number(d.b));
            if (!d.onlyA && !d.onlyB)
                e.set("delta_pct", JsonValue::number(d.deltaPct()));
            e.set("drift", JsonValue::boolean(d.beyondTolerance));
            arr.push(std::move(e));
        }
        return arr;
    };
    j.set("metrics", metricArray(diff.metrics));
    j.set("validation", metricArray(diff.validation));
    j.set("counters", metricArray(diff.counters));

    JsonValue kernels = JsonValue::array();
    for (const KernelDelta &d : diff.kernels) {
        JsonValue e = JsonValue::object();
        e.set("key", JsonValue::string(d.key));
        if (!d.onlyB) {
            e.set("time_a", JsonValue::number(d.a.time));
            e.set("bound_a", JsonValue::string(d.a.bound));
        }
        if (!d.onlyA) {
            e.set("time_b", JsonValue::number(d.b.time));
            e.set("bound_b", JsonValue::string(d.b.bound));
        }
        if (!d.onlyA && !d.onlyB)
            e.set("time_delta_pct",
                  JsonValue::number(d.timeDeltaPct()));
        e.set("component", JsonValue::string(d.component()));
        e.set("bound_flip", JsonValue::boolean(d.boundFlip));
        e.set("drift", JsonValue::boolean(d.beyondTolerance ||
                                          d.boundFlip || d.onlyA ||
                                          d.onlyB));
        kernels.push(std::move(e));
    }
    j.set("kernels", std::move(kernels));

    JsonValue attrs = JsonValue::array();
    for (const std::string &c : diff.attrChanges)
        attrs.push(JsonValue::string(c));
    j.set("attr_changes", std::move(attrs));
    return j;
}

} // namespace report
} // namespace optimus
