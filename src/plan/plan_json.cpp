/**
 * @file
 * Plan export: step summaries, the "optimus-kernel-plan" JSON schema
 * (version 1, lossless round trip through util/json.h's
 * shortest-round-trip number dump) and an RFC-4180 CSV — the backing
 * of the `optimus_cli kernels` subcommand.
 */

#include "plan/plan.h"

#include <cstdio>

#include "util/error.h"

namespace optimus {
namespace plan {

namespace {

const char *kSchemaName = "optimus-kernel-plan";
constexpr int kSchemaVersion = 1;

const char *
scopeName(GroupScope scope)
{
    return scope == GroupScope::InterNode ? "inter-node" : "intra-node";
}

/** RFC-4180 cell: quote anything with a comma, quote, CR or LF. */
std::string
csvCell(const std::string &cell)
{
    if (cell.find_first_of(",\"\r\n") == std::string::npos)
        return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::string
csvNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::vector<StepSummary>
summarizePlan(const EvaluatedPlan &ep)
{
    std::vector<StepSummary> out;
    out.reserve(ep.plan.steps.size());
    for (size_t i = 0; i < ep.plan.steps.size(); ++i) {
        const PlanStep &st = ep.plan.steps[i];
        const StepEval &ev = ep.evals[i];
        StepSummary r;
        r.lane = st.lane;
        r.name = st.name;
        r.category = ev.category;
        r.count = st.repeatMicrobatch * st.repeatLayer * st.repeatToken;
        r.perInstance = ev.perInstance;
        r.total = ev.total;
        switch (st.kind) {
          case StepKind::Compute: {
            r.kind = "compute";
            const double inst =
                double(st.repeatLayer) * double(st.repeatMicrobatch);
            if (st.contextDependent) {
                // Each token's op does its own work.
                const size_t levels = ep.dev.mem.size();
                for (size_t t = 0; t < ev.tokens.size(); ++t) {
                    r.flops += ev.tokens[t].flops * inst;
                    r.dramBytes += ev.tokenBytes[t * levels] * inst;
                    r.overhead += ev.tokens[t].overhead * inst;
                }
                r.detail = boundLevelName(ep.dev, ev.tokens[0].boundLevel);
                break;
            }
            // Under Max only the winning part runs on the critical
            // stage, so only its work is charged.
            size_t winner = 0;
            if (st.combine == PartCombine::Max) {
                double best = -1.0;
                for (size_t pi = 0; pi < st.parts.size(); ++pi) {
                    double scaled = ev.partEsts[pi].time *
                                    st.parts[pi].scale;
                    if (scaled > best) {
                        best = scaled;
                        winner = pi;
                    }
                }
            }
            for (size_t pi = 0; pi < st.parts.size(); ++pi) {
                if (st.combine == PartCombine::Max && pi != winner)
                    continue;
                const KernelEstimate &est = ev.partEsts[pi];
                const double s =
                    st.parts[pi].scale * inst * double(st.repeatToken);
                r.flops += est.flops * s;
                if (!est.bytesPerLevel.empty())
                    r.dramBytes += est.bytesPerLevel[0] * s;
                r.overhead += est.overhead * s;
            }
            r.detail = ev.partEsts[0].boundName(ep.dev);
            break;
          }
          case StepKind::Collective:
            r.kind = "collective";
            r.detail = scopeName(st.scope);
            break;
          case StepKind::Synthetic:
            r.kind = "synthetic";
            break;
        }
        out.push_back(std::move(r));
    }
    return out;
}

JsonValue
summariesToJson(const std::vector<StepSummary> &steps,
                const std::string &phase)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", JsonValue::string(kSchemaName));
    doc.set("version", JsonValue::number(double(kSchemaVersion)));
    doc.set("phase", JsonValue::string(phase));

    JsonValue arr = JsonValue::array();
    double total_time = 0.0, total_flops = 0.0, total_bytes = 0.0;
    for (const StepSummary &r : steps) {
        JsonValue e = JsonValue::object();
        e.set("lane", JsonValue::string(r.lane));
        e.set("name", JsonValue::string(r.name));
        e.set("category", JsonValue::string(r.category));
        e.set("kind", JsonValue::string(r.kind));
        e.set("count", JsonValue::number(double(r.count)));
        e.set("per_instance_s", JsonValue::number(r.perInstance));
        e.set("total_s", JsonValue::number(r.total));
        e.set("flops", JsonValue::number(r.flops));
        e.set("dram_bytes", JsonValue::number(r.dramBytes));
        e.set("overhead_s", JsonValue::number(r.overhead));
        e.set("detail", JsonValue::string(r.detail));
        arr.push(std::move(e));
        total_time += r.total;
        total_flops += r.flops;
        total_bytes += r.dramBytes;
    }
    doc.set("steps", std::move(arr));

    JsonValue totals = JsonValue::object();
    totals.set("time", JsonValue::number(total_time));
    totals.set("flops", JsonValue::number(total_flops));
    totals.set("dram_bytes", JsonValue::number(total_bytes));
    doc.set("totals", std::move(totals));
    return doc;
}

std::vector<StepSummary>
summariesFromJson(const JsonValue &doc, std::string *phase)
{
    checkConfig(doc.isObject(), "kernel plan: document not an object");
    checkConfig(doc.getString("schema", "") == kSchemaName,
                "kernel plan: unexpected schema '" +
                    doc.getString("schema", "") + "'");
    checkConfig(doc.getInt("version", 0) == kSchemaVersion,
                "kernel plan: unsupported version");
    if (phase != nullptr)
        *phase = doc.getString("phase", "");

    std::vector<StepSummary> out;
    for (const JsonValue &e : doc.at("steps").asArray()) {
        StepSummary r;
        r.lane = e.at("lane").asString();
        r.name = e.at("name").asString();
        r.category = e.getString("category", "");
        r.kind = e.getString("kind", "");
        r.count = e.getInt("count", 1);
        r.perInstance = e.getNumber("per_instance_s", 0.0);
        r.total = e.getNumber("total_s", 0.0);
        r.flops = e.getNumber("flops", 0.0);
        r.dramBytes = e.getNumber("dram_bytes", 0.0);
        r.overhead = e.getNumber("overhead_s", 0.0);
        r.detail = e.getString("detail", "");
        out.push_back(std::move(r));
    }
    return out;
}

JsonValue
planJson(const EvaluatedPlan &ep)
{
    return summariesToJson(summarizePlan(ep), ep.plan.phase);
}

std::string
planCsv(const EvaluatedPlan &ep)
{
    std::string out = "lane,name,category,kind,count,per_instance_s,"
                      "total_s,flops,dram_bytes,overhead_s,detail\n";
    for (const StepSummary &r : summarizePlan(ep)) {
        out += csvCell(r.lane);
        out += ',';
        out += csvCell(r.name);
        out += ',';
        out += csvCell(r.category);
        out += ',';
        out += r.kind;
        out += ',';
        out += std::to_string(r.count);
        out += ',';
        out += csvNumber(r.perInstance);
        out += ',';
        out += csvNumber(r.total);
        out += ',';
        out += csvNumber(r.flops);
        out += ',';
        out += csvNumber(r.dramBytes);
        out += ',';
        out += csvNumber(r.overhead);
        out += ',';
        out += csvCell(r.detail);
        out += '\n';
    }
    return out;
}

} // namespace plan
} // namespace optimus
