/**
 * @file
 * Per-tile PPU processing: TileAnalysis (detect, prune, order) -> cost.
 *
 * Turns one tile's front-end analysis (core/tile_analysis.h) into the
 * per-tile schedule the pipeline model (ppu.h) consumes, and counts
 * the architectural activity the energy model charges. Supports the
 * ablation configurations of Fig. 9: bit-sparsity-only processing (no
 * detection, no reuse) and product sparsity with either dispatch mode.
 */

#ifndef PROSPERITY_CORE_TILE_PIPELINE_H
#define PROSPERITY_CORE_TILE_PIPELINE_H

#include <cstddef>

#include "bitmatrix/bit_matrix.h"

namespace prosperity {

/** Which sparsity the Processor exploits. */
enum class SparsityMode {
    kBitSparsity,     ///< skip zeros only (rows processed as-is)
    kProductSparsity, ///< prefix reuse + residual patterns (the paper)
};

/**
 * Execution-order generation strategy (Sec. V-D). A stable sort by NO
 * already places every prefix before its suffixes, and the hardware's
 * bitonic sorter runs concurrently with detection; the ablation
 * baseline (Fig. 9) instead traverses the forest, walking each row's
 * prefix chain through the O(m) table.
 */
enum class DispatchMode {
    kOverheadFree,  ///< stable sort by NO (the paper's design)
    kTreeTraversal, ///< BFS over the forest (ablation baseline)
};

/** Activity and timing of one spike tile through the PPU. */
struct TileStats
{
    std::size_t rows = 0;
    std::size_t cols = 0;

    /** Cycles of the ProSparsity processing phase (0 in bit mode). */
    std::size_t prosparsity_cycles = 0;

    /**
     * Cycles of the computation phase for ONE n-pass: pipeline fill +
     * sum over issued rows of max(1, popcount(pattern)).
     */
    std::size_t compute_cycles = 0;

    /** Residual accumulations actually issued (row-activations). */
    double accum_row_ops = 0.0;

    /** Rows whose compute cost is the 1-cycle issue floor (EM copies):
     *  the work intra-PPU issue parallelism can compress. */
    double floor_rows = 0.0;

    /** Set bits of the raw tile (bit-sparsity accumulations). */
    double bit_row_ops = 0.0;

    /** Rows that reused a prefix (EM + PM). */
    std::size_t prefix_hits = 0;
    std::size_t exact_matches = 0;
    std::size_t partial_matches = 0;

    // Energy-relevant activity.
    double tcam_bit_ops = 0.0;
    double popcount_ops = 0.0;
    double pruner_ops = 0.0;
    double sorter_compares = 0.0;
    double table_accesses = 0.0;
    double prefix_loads = 0.0; ///< output-buffer row reads for prefixes
};

/** Tile-level PPU front end. */
class TilePipeline
{
  public:
    /**
     * Fraction of compute cycles doing useful accumulation work. The
     * row-wise Processor loses slots to structural hazards — prefix
     * loads from the output buffer, write-back port conflicts, and
     * weight-bank conflicts — captured as a single issue-efficiency
     * derating applied to both sparsity modes.
     */
    static constexpr double kIssueEfficiency = 0.65;

    TilePipeline(SparsityMode sparsity, DispatchMode dispatch,
                 std::size_t issue_width = 1)
        : sparsity_(sparsity), dispatch_(dispatch),
          issue_width_(issue_width == 0 ? 1 : issue_width)
    {
    }

    /** Process one cropped tile and return its schedule/activity. */
    TileStats process(const BitMatrix& tile) const;

  private:
    SparsityMode sparsity_;
    DispatchMode dispatch_;
    std::size_t issue_width_;
};

} // namespace prosperity

#endif // PROSPERITY_CORE_TILE_PIPELINE_H
