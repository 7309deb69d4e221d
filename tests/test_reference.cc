/**
 * @file
 * Tests for the paper-reference files (analysis/reference.h): every
 * malformed entry fails with a key-path error, every checked-in file
 * loads against its spec, and the fig8 values equal the derived
 * tables' own geomeans.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "analysis/reference.h"

namespace prosperity {
namespace {

std::vector<PaperReference>
parse(const std::string& entry, const std::string& campaign)
{
    return referencesFromJson(
        json::Value::parse("{\"references\": [" + entry + "]}"),
        loadNamedCampaign(campaign));
}

/** `entry` (one reference) must be rejected with `key_path` in the
 *  message. */
void
expectRejected(const std::string& entry, const std::string& campaign,
               const std::string& key_path)
{
    try {
        parse(entry, campaign);
        ADD_FAILURE() << "accepted: " << entry;
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(key_path), std::string::npos)
            << e.what();
    }
}

TEST(PaperReferences, CheckedInFilesLoadAgainstTheirSpecs)
{
    for (const char* name : {"fig8", "fig9", "table1", "table4"}) {
        const std::string spec_path =
            defaultCampaignDir() + "/" + name + ".json";
        EXPECT_FALSE(
            loadReferences(referencePathFor(spec_path),
                           CampaignSpec::load(spec_path))
                .empty())
            << name;
    }
}

TEST(PaperReferences, PathSitsNextToTheSpec)
{
    EXPECT_EQ(referencePathFor("campaigns/fig8.json"),
              "campaigns/fig8.reference.json");
    EXPECT_EQ(referencePathFor("spec"), "spec.reference.json");
}

TEST(PaperReferences, ValidEntriesParse)
{
    const std::vector<PaperReference> refs = parse(
        R"({"source": "Fig. 8", "metric": "speedup", "of": "prosperity",
            "over": "stellar", "workloads": ["VGG16/CIFAR10"],
            "paper": 2.1})",
        "fig8");
    ASSERT_EQ(refs.size(), 1u);
    EXPECT_EQ(refs[0].over, "stellar");
    EXPECT_EQ(refs[0].workloads.size(), 1u);
    EXPECT_FALSE(refs[0].tolerance);
    const std::vector<PaperReference> gops = parse(
        R"({"source": "Table IV", "metric": "gops", "of": "ptb",
            "paper": 41.37, "tolerance": 0.1})",
        "table4");
    ASSERT_EQ(gops.size(), 1u);
    EXPECT_DOUBLE_EQ(*gops[0].tolerance, 0.1);
}

TEST(PaperReferences, UnknownMetricIsRejected)
{
    expectRejected(R"({"source": "x", "metric": "latency",
                       "of": "prosperity", "over": "ptb", "paper": 2})",
                   "fig8", "references[0].metric");
}

TEST(PaperReferences, LabelsMustNameSpecAccelerators)
{
    expectRejected(R"({"source": "x", "metric": "speedup", "of": "tpu",
                       "over": "ptb", "paper": 2})",
                   "fig8", "references[0].of");
    expectRejected(R"({"source": "x", "metric": "speedup",
                       "of": "prosperity", "over": "tpu", "paper": 2})",
                   "fig8", "references[0].over");
}

TEST(PaperReferences, OverIsRequiredForRatiosOnly)
{
    expectRejected(R"({"source": "x", "metric": "energy_efficiency",
                       "of": "prosperity", "paper": 2})",
                   "fig8", "references[0]: missing required key \"over\"");
    expectRejected(R"({"source": "x", "metric": "gops",
                       "of": "prosperity", "over": "eyeriss",
                       "paper": 2})",
                   "table4", "references[0].over");
    expectRejected(R"({"source": "x", "metric": "gopj",
                       "of": "prosperity", "over": "eyeriss",
                       "paper": 2})",
                   "table4", "references[0].over");
}

TEST(PaperReferences, WorkloadsMustBeSpecWorkloads)
{
    expectRejected(R"({"source": "x", "metric": "speedup",
                       "of": "prosperity", "over": "stellar",
                       "workloads": ["VGG16/CIFAR10", "VGG9/CIFAR10"],
                       "paper": 2})",
                   "fig8", "references[0].workloads[1]");
}

TEST(PaperReferences, PaperMustBePositiveAndFinite)
{
    for (const char* paper : {"0", "-3", "\"7.4x\""})
        expectRejected(std::string(R"({"source": "x", "metric": "speedup",
                                       "of": "prosperity", "over": "ptb",
                                       "paper": )") +
                           paper + "}",
                       "fig8", "references[0].paper");
    // JSON text cannot spell infinity; a built document can.
    json::Value entry = json::Value::parse(
        R"({"source": "x", "metric": "speedup", "of": "prosperity",
            "over": "ptb", "paper": 1})");
    entry.set("paper", std::numeric_limits<double>::infinity());
    json::Value list = json::Value::array();
    list.push(std::move(entry));
    json::Value doc = json::Value::object();
    doc.set("references", std::move(list));
    try {
        referencesFromJson(doc, loadNamedCampaign("fig8"));
        ADD_FAILURE() << "accepted an infinite paper value";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("references[0].paper"),
                  std::string::npos)
            << e.what();
    }
}

TEST(PaperReferences, ToleranceMustLieInTheOpenUnitInterval)
{
    for (const char* tolerance : {"0", "1", "1.5", "-0.1"})
        expectRejected(std::string(R"({"source": "x", "metric": "gops",
                                       "of": "ptb", "paper": 41.37,
                                       "tolerance": )") +
                           tolerance + "}",
                       "table4", "references[0].tolerance");
}

TEST(PaperReferences, SingleCellMetricsNeedOneWorkload)
{
    expectRejected(R"({"source": "x", "metric": "gops",
                       "of": "prosperity", "paper": 390.1})",
                   "fig8", "references[0].metric");
}

TEST(PaperReferences, Fig8ValuesEqualTheDerivedTablesGeomeans)
{
    SimulationEngine engine;
    CampaignRunner runner(engine);
    const CampaignSpec spec = loadNamedCampaign("fig8");
    const CampaignReport report = runner.run(spec);
    const DerivedTable speedup = report.speedupTable();
    const DerivedTable energy = report.energyEfficiencyTable();
    const auto column = [&](const std::string& label) {
        for (std::size_t a = 0; a < spec.accelerators.size(); ++a)
            if (spec.accelerators[a].label == label)
                return a;
        ADD_FAILURE() << "no column " << label;
        return std::size_t{0};
    };
    // Stellar targets spiking CNNs, so the paper compares it there.
    const auto cnnOnly = [&](const std::string& over, bool seconds) {
        double log_sum = 0.0;
        std::size_t count = 0;
        for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
            const std::string& model = spec.workloads[w].model;
            if (model != "vgg16" && model != "vgg9" &&
                model != "resnet18" && model != "lenet5")
                continue;
            const RunResult& other = report.cell(column(over), w)->result;
            const RunResult& pros =
                report.cell(column("prosperity"), w)->result;
            log_sum += std::log(
                seconds ? other.seconds() / pros.seconds()
                        : other.energy.totalPj() / pros.energy.totalPj());
            ++count;
        }
        return std::exp(log_sum / static_cast<double>(count));
    };

    const std::vector<PaperReference> refs = loadReferences(
        referencePathFor(defaultCampaignDir() + "/fig8.json"), spec);
    ASSERT_EQ(refs.size(), 12u);
    for (const PaperReference& ref : refs) {
        const bool seconds = ref.metric == "speedup";
        const DerivedTable& table = seconds ? speedup : energy;
        const double expected =
            ref.over == "stellar"
                ? cnnOnly(ref.over, seconds)
                : table.geomean[column(ref.of)] /
                      table.geomean[column(ref.over)];
        const double value = reproducedValue(ref, report);
        EXPECT_NEAR(value, expected, 1e-12 * expected)
            << ref.metric << " over " << ref.over;
    }
    // Every row of the printed table carries a value.
    EXPECT_EQ(referenceTable(refs, report).rowCount(), refs.size());
}

} // namespace
} // namespace prosperity
