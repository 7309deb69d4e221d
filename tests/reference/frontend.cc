#include "frontend.h"

#include <cmath>

namespace prosperity {

ReferenceFrontEnd
referenceFrontEnd(const BitMatrix& tile, DispatchMode dispatch)
{
    ReferenceFrontEnd fe;
    fe.table = Pruner().prune(tile, Detector().detectNaive(tile));
    fe.dispatch = Dispatcher(dispatch).dispatch(fe.table);
    return fe;
}

TileStats
referenceTileStats(const BitMatrix& tile, SparsityMode sparsity,
                   DispatchMode dispatch, std::size_t issue_width)
{
    TileStats stats;
    stats.rows = tile.rows();
    stats.cols = tile.cols();
    if (stats.rows == 0 || stats.cols == 0)
        return stats;
    if (issue_width == 0)
        issue_width = 1;

    const std::size_t fill = 4;
    const double efficiency = TilePipeline::kIssueEfficiency;

    if (sparsity == SparsityMode::kBitSparsity) {
        std::size_t work = 0;
        for (std::size_t r = 0; r < stats.rows; ++r) {
            const std::size_t pops = tile.row(r).popcount();
            stats.bit_row_ops += static_cast<double>(pops);
            work += pops;
        }
        stats.accum_row_ops = stats.bit_row_ops;
        stats.compute_cycles =
            fill + static_cast<std::size_t>(std::ceil(
                       static_cast<double>(work) / efficiency));
        return stats;
    }

    const ReferenceFrontEnd fe = referenceFrontEnd(tile, dispatch);
    stats.prosparsity_cycles =
        Detector::phaseCycles(stats.rows) + fe.dispatch.exposed_cycles;
    stats.tcam_bit_ops = Detector::tcamBitOps(stats.rows, stats.cols);
    stats.popcount_ops = static_cast<double>(stats.rows);
    stats.pruner_ops = static_cast<double>(stats.rows);
    stats.sorter_compares = fe.dispatch.sorter_compares;
    stats.table_accesses = fe.dispatch.table_accesses;

    double adds = 0.0;
    for (std::size_t r = 0; r < stats.rows; ++r) {
        const PrefixEntry& entry = fe.table[r];
        stats.bit_row_ops += static_cast<double>(entry.popcount);
        const std::size_t pattern_pops = entry.pattern.popcount();
        stats.accum_row_ops += static_cast<double>(pattern_pops);
        if (entry.popcount > 0) {
            if (pattern_pops == 0)
                stats.floor_rows += 1.0;
            else
                adds += static_cast<double>(pattern_pops);
        }
        if (entry.hasPrefix()) {
            ++stats.prefix_hits;
            ++stats.prefix_loads;
            if (entry.kind == PrefixKind::kExactMatch)
                ++stats.exact_matches;
            else
                ++stats.partial_matches;
        }
    }
    const double work =
        adds + std::ceil(stats.floor_rows /
                         static_cast<double>(issue_width));
    stats.compute_cycles =
        fill + static_cast<std::size_t>(std::ceil(work / efficiency));
    return stats;
}

} // namespace prosperity
