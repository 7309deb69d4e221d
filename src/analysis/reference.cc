#include "analysis/reference.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json_schema.h"

namespace prosperity {

namespace {

bool
isRatioMetric(const std::string& metric)
{
    return metric == "speedup" || metric == "energy_efficiency";
}

std::string
requireLabel(const json::Value& entry, const char* key,
             const CampaignSpec& spec, const std::string& context)
{
    const std::string label = json::requireString(entry, key, context);
    std::string roster;
    for (const CampaignAccelerator& accel : spec.accelerators) {
        if (accel.label == label)
            return label;
        roster += (roster.empty() ? "" : ", ") + accel.label;
    }
    json::schemaError(context + "." + key,
                      '"' + label + "\" is not an accelerator label of "
                      "campaign \"" + spec.name + "\" (labels: " +
                      roster + ")");
}

PaperReference
parseReference(const json::Value& entry, const CampaignSpec& spec,
               const std::string& context)
{
    json::requireObject(entry, context);
    json::expectOnlyKeys(entry,
                         {"source", "metric", "of", "over", "workloads",
                          "paper", "tolerance"},
                         context);
    PaperReference ref;
    ref.source = json::requireString(entry, "source", context);
    ref.metric = json::requireString(entry, "metric", context);
    const bool ratio = isRatioMetric(ref.metric);
    if (!ratio && ref.metric != "gops" && ref.metric != "gopj")
        json::schemaError(context + ".metric",
                          "unknown metric \"" + ref.metric +
                              "\" (accepted: speedup, "
                              "energy_efficiency, gops, gopj)");
    if (!ratio && spec.workloads.size() != 1)
        json::schemaError(context + ".metric",
                          ref.metric + " reads one cell, but campaign \"" +
                              spec.name + "\" has " +
                              std::to_string(spec.workloads.size()) +
                              " workloads");
    ref.of = requireLabel(entry, "of", spec, context);
    if (ratio)
        ref.over = requireLabel(entry, "over", spec, context);
    else if (entry.find("over"))
        json::schemaError(context + ".over",
                          ref.metric + " is not a ratio and takes no "
                                       "\"over\"");

    if (entry.find("workloads")) {
        if (!ratio)
            json::schemaError(context + ".workloads",
                              ref.metric + " reads one cell and takes no "
                                           "workload list");
        const json::Value::Array& names =
            json::requireArray(entry, "workloads", context);
        if (names.empty())
            json::schemaError(context + ".workloads",
                              "the list is empty (omit it to use every "
                              "workload)");
        for (std::size_t i = 0; i < names.size(); ++i) {
            const std::string where =
                context + ".workloads[" + std::to_string(i) + "]";
            if (!names[i].isString())
                json::schemaError(where,
                                  std::string("expected a string, got ") +
                                      json::Value::typeName(
                                          names[i].type()));
            const std::string& name = names[i].asString();
            bool known = false;
            for (const Workload& w : spec.workloads)
                known = known || w.name() == name;
            if (!known)
                json::schemaError(where, '"' + name +
                                             "\" is not a workload of "
                                             "campaign \"" +
                                             spec.name + '"');
            ref.workloads.push_back(name);
        }
    }

    const json::Value* paper = entry.find("paper");
    if (!paper)
        json::schemaError(context, "missing required key \"paper\"");
    ref.paper = json::requireNumberValue(*paper, context + ".paper");
    if (!(std::isfinite(ref.paper) && ref.paper > 0.0))
        json::schemaError(context + ".paper",
                          "must be positive and finite, got " +
                              json::formatDouble(ref.paper));
    if (const json::Value* tolerance = entry.find("tolerance")) {
        const double t =
            json::requireNumberValue(*tolerance, context + ".tolerance");
        if (!(t > 0.0 && t < 1.0))
            json::schemaError(context + ".tolerance",
                              "must lie in (0, 1), got " +
                                  json::formatDouble(t));
        ref.tolerance = t;
    }
    return ref;
}

double
valueOf(const std::string& metric, const RunResult& r)
{
    if (metric == "speedup")
        return r.seconds();
    if (metric == "energy_efficiency")
        return r.energy.totalPj();
    return metric == "gops" ? r.gops() : r.gopj();
}

std::size_t
labelIndex(const CampaignSpec& spec, const std::string& label)
{
    std::size_t a = 0;
    while (a < spec.accelerators.size() &&
           spec.accelerators[a].label != label)
        ++a;
    return a;
}

} // namespace

std::vector<PaperReference>
referencesFromJson(const json::Value& value, const CampaignSpec& spec)
{
    const std::string top = "top level";
    json::requireObject(value, top);
    json::expectOnlyKeys(value, {"references"}, top);
    const json::Value::Array& entries =
        json::requireArray(value, "references", top);
    if (entries.empty())
        json::schemaError("references", "the list is empty");
    std::vector<PaperReference> references;
    for (std::size_t i = 0; i < entries.size(); ++i)
        references.push_back(parseReference(
            entries[i], spec, "references[" + std::to_string(i) + "]"));
    return references;
}

std::vector<PaperReference>
loadReferences(const std::string& path, const CampaignSpec& spec)
{
    std::ifstream is(path);
    if (!is)
        throw std::invalid_argument("cannot open reference file: " + path);
    std::ostringstream text;
    text << is.rdbuf();
    try {
        return referencesFromJson(json::Value::parse(text.str()), spec);
    } catch (const std::exception& e) {
        throw std::invalid_argument(path + ": " + e.what());
    }
}

std::string
referencePathFor(const std::string& spec_path)
{
    const std::string suffix = ".json";
    const bool has_suffix =
        spec_path.size() >= suffix.size() &&
        spec_path.compare(spec_path.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
    return (has_suffix ? spec_path.substr(0, spec_path.size() -
                                                 suffix.size())
                       : spec_path) +
           ".reference.json";
}

double
reproducedValue(const PaperReference& ref, const CampaignReport& report)
{
    const CampaignSpec& spec = report.spec;
    const std::size_t of = labelIndex(spec, ref.of);
    if (!isRatioMetric(ref.metric)) {
        const CampaignCell* cell = report.cell(of, 0);
        return cell ? valueOf(ref.metric, cell->result) : std::nan("");
    }
    const std::size_t over = labelIndex(spec, ref.over);
    std::vector<double> ratios;
    for (const CampaignCell& c : report.cells) {
        if (c.accelerator_index != of)
            continue;
        const std::string name = spec.workloads[c.workload_index].name();
        bool listed = ref.workloads.empty();
        for (const std::string& w : ref.workloads)
            listed = listed || w == name;
        const CampaignCell* other =
            report.cell(over, c.workload_index, c.option_index);
        if (!listed || !other)
            continue;
        const double ratio = valueOf(ref.metric, other->result) /
                             valueOf(ref.metric, c.result);
        // Like the derived tables' geomeans: finite positive cells only.
        if (std::isfinite(ratio) && ratio > 0.0)
            ratios.push_back(ratio);
    }
    return ratios.empty() ? std::nan("") : geometricMean(ratios);
}

Table
referenceTable(const std::vector<PaperReference>& references,
               const CampaignReport& report)
{
    Table table("Reproduced vs paper — " + report.spec.name);
    table.setHeader({"source", "metric", "of", "over", "workloads",
                     "reproduced", "paper", "reproduced/paper",
                     "within tolerance"});
    for (const PaperReference& ref : references) {
        const double value = reproducedValue(ref, report);
        const bool ratio = isRatioMetric(ref.metric);
        const auto show = [ratio](double v) {
            return ratio ? Table::ratio(v) : Table::num(v);
        };
        std::string within = "-";
        if (ref.tolerance)
            within = std::string(std::fabs(value / ref.paper - 1.0) <=
                                         *ref.tolerance
                                     ? "yes"
                                     : "NO") +
                     " (±" + Table::num(*ref.tolerance * 100.0, 0) + "%)";
        table.addRow(
            {ref.source, ref.metric, ref.of, ratio ? ref.over : "-",
             ref.workloads.empty()
                 ? "all"
                 : std::to_string(ref.workloads.size()) + " of " +
                       std::to_string(report.spec.workloads.size()),
             std::isnan(value) ? "n/a" : show(value), show(ref.paper),
             std::isnan(value) ? "n/a" : Table::num(value / ref.paper),
             within});
    }
    return table;
}

} // namespace prosperity
