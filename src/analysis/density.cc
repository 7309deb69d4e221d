#include "density.h"

#include <utility>
#include <vector>

#include "core/tile_analysis.h"
#include "gen/spike_generator.h"
#include "sim/logging.h"

namespace prosperity {

void
DensityReport::merge(const DensityReport& other)
{
    bits_total += other.bits_total;
    bits_set += other.bits_set;
    pattern_bits_one += other.pattern_bits_one;
    pattern_bits_two += other.pattern_bits_two;
    rows += other.rows;
    rows_one_prefix += other.rows_one_prefix;
    rows_two_prefix += other.rows_two_prefix;
    exact_matches += other.exact_matches;
    partial_matches += other.partial_matches;
}

namespace {

/** Analyze one cropped tile, optionally selecting a second prefix. */
DensityReport
analyzeTile(const BitMatrix& tile, bool two_prefix)
{
    const TileAnalysis fe(tile);
    DensityReport report;
    const std::size_t m = tile.rows();
    report.rows = static_cast<double>(m);
    report.bits_total =
        static_cast<double>(m) * static_cast<double>(tile.cols());

    for (std::size_t i = 0; i < m; ++i) {
        report.bits_set += static_cast<double>(fe.popcount(i));
        const std::size_t residual_one = fe.residualPopcount(i);
        report.pattern_bits_one += static_cast<double>(residual_one);
        if (fe.hasPrefix(i)) {
            report.rows_one_prefix += 1.0;
            if (fe.isExactMatch(i))
                report.exact_matches += 1.0;
            else
                report.partial_matches += 1.0;
        }

        if (!two_prefix) {
            report.pattern_bits_two += static_cast<double>(residual_one);
            continue;
        }

        // Second prefix: the largest row (at least two ones) fully
        // inside the residual pattern. Such a row is disjoint from the
        // first prefix and a subset of this row, so it is neither of
        // them.
        std::size_t best_pops = 0;
        if (fe.hasPrefix(i) && residual_one >= 2) {
            const BitVector pattern = tile.row(i).andNot(
                tile.row(static_cast<std::size_t>(fe.prefix(i))));
            best_pops = fe.largestSubsetPopcount(pattern, 2, residual_one);
        }
        if (best_pops > 0) {
            report.rows_two_prefix += 1.0;
            report.pattern_bits_two +=
                static_cast<double>(residual_one - best_pops);
        } else {
            report.pattern_bits_two += static_cast<double>(residual_one);
        }
    }
    return report;
}

} // namespace

DensityReport
analyzeMatrix(const BitMatrix& spikes, const DensityOptions& options)
{
    const TileConfig& tile = options.tile;
    std::vector<std::pair<std::size_t, std::size_t>> origins;
    for (std::size_t r = 0; r < spikes.rows(); r += tile.m)
        for (std::size_t c = 0; c < spikes.cols(); c += tile.k)
            origins.emplace_back(r, c);

    double scale = 1.0;
    if (options.max_sampled_tiles > 0 &&
        origins.size() > options.max_sampled_tiles) {
        std::vector<std::pair<std::size_t, std::size_t>> sampled;
        const double stride = static_cast<double>(origins.size()) /
                              static_cast<double>(options.max_sampled_tiles);
        for (std::size_t i = 0; i < options.max_sampled_tiles; ++i)
            sampled.push_back(
                origins[static_cast<std::size_t>(i * stride)]);
        scale = static_cast<double>(origins.size()) /
                static_cast<double>(sampled.size());
        origins = std::move(sampled);
    }

    DensityReport total;
    for (const auto& [r0, c0] : origins) {
        DensityReport tile_report = analyzeTile(
            spikes.tile(r0, c0, tile.m, tile.k), options.two_prefix);
        tile_report.bits_total *= scale;
        tile_report.bits_set *= scale;
        tile_report.pattern_bits_one *= scale;
        tile_report.pattern_bits_two *= scale;
        tile_report.rows *= scale;
        tile_report.rows_one_prefix *= scale;
        tile_report.rows_two_prefix *= scale;
        tile_report.exact_matches *= scale;
        tile_report.partial_matches *= scale;
        total.merge(tile_report);
    }
    return total;
}

DensityReport
analyzeWorkload(const Workload& workload, const DensityOptions& options,
                std::uint64_t seed)
{
    const ModelSpec model = workload.buildModel();
    const SpikeGenerator gen(workload.profile, seed);

    DensityReport total;
    std::size_t layer_index = 0;
    for (const auto& layer : model.layers) {
        ++layer_index;
        if (!layer.isSpikingGemm())
            continue;
        total.merge(
            analyzeMatrix(gen.generateLayer(layer, layer_index), options));
    }
    return total;
}

} // namespace prosperity
