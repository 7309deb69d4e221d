/**
 * @file
 * The paper's reference numbers as data.
 *
 * `campaigns/<name>.reference.json` sits next to a campaign spec and
 * lists the values the paper reports for comparisons that campaign
 * reproduces. The file is separate from the spec, so report bytes and
 * campaign ids never depend on it. `prosperity_cli campaign` loads it
 * (validated against the spec before anything is simulated) and
 * prints a "Reproduced vs paper" table after the derived tables.
 *
 * Schema (docs/CAMPAIGNS.md):
 *
 * @code
 *   {"references": [
 *     {"source": "Fig. 8", "metric": "speedup",
 *      "of": "prosperity", "over": "stellar",
 *      "workloads": ["VGG16/CIFAR10", "VGG16/CIFAR100"],
 *      "paper": 2.1},
 *     {"source": "Table IV", "metric": "gops", "of": "prosperity",
 *      "paper": 390.10, "tolerance": 0.20}
 *   ]}
 * @endcode
 *
 * `speedup` and `energy_efficiency` are the geomean, over the listed
 * workloads (default: all of the spec's), of `over`'s seconds (energy)
 * divided by `of`'s. `gops` and `gopj` are `of`'s own value on a
 * one-workload campaign.
 */

#ifndef PROSPERITY_ANALYSIS_REFERENCE_H
#define PROSPERITY_ANALYSIS_REFERENCE_H

#include <optional>
#include <string>
#include <vector>

#include "analysis/campaign.h"
#include "sim/table.h"
#include "util/json.h"

namespace prosperity {

/** One value the paper reports, and how to reproduce it from a
 *  campaign report. */
struct PaperReference
{
    std::string source; ///< where the paper states it ("Fig. 8")
    std::string metric; ///< speedup | energy_efficiency | gops | gopj
    std::string of;     ///< accelerator label the value describes
    std::string over;   ///< denominator label; ratio metrics only
    /** Workload names the geomean runs over; empty means all. */
    std::vector<std::string> workloads;
    double paper = 0.0;
    /** Bound on |reproduced / paper - 1|, set only where the model is
     *  calibrated to this value. */
    std::optional<double> tolerance;
};

/**
 * Parse a reference document and check it against `spec`: labels and
 * workload names must exist in the spec. Throws std::invalid_argument
 * with the offending key path ("references[2].over: ...").
 */
std::vector<PaperReference> referencesFromJson(const json::Value& value,
                                               const CampaignSpec& spec);

/** Read + parse a reference file; errors mention the path. */
std::vector<PaperReference> loadReferences(const std::string& path,
                                           const CampaignSpec& spec);

/** The reference file next to a spec file: "x/fig8.json" ->
 *  "x/fig8.reference.json". */
std::string referencePathFor(const std::string& spec_path);

/** The reproduced value of `ref` in `report`; NaN when the report has
 *  no cell pair to compare. */
double reproducedValue(const PaperReference& ref,
                       const CampaignReport& report);

/** "Reproduced vs paper" table: one row per reference. */
Table referenceTable(const std::vector<PaperReference>& references,
                     const CampaignReport& report);

} // namespace prosperity

#endif // PROSPERITY_ANALYSIS_REFERENCE_H
