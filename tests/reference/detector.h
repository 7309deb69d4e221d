/**
 * @file
 * ProSparsity Detector (Sec. V-B) — stage-by-stage reference model.
 *
 * Test-only: the timing path runs the fused core/tile_analysis.h pass,
 * which tests/test_tile_analysis.cc pins against detectNaive() ->
 * Pruner -> Dispatcher.
 *
 * Functional model of the TCAM-based spatial detection and the popcount
 * temporal detection. For each query row the TCAM masks the row's 1-bits
 * as don't-care and returns, in one cycle, the set of entries matching
 * the masked pattern — exactly the rows whose spike set is a subset of
 * the query row. Popcount units produce each row's number of ones (NO),
 * the preliminary temporal information.
 */

#ifndef PROSPERITY_REFERENCE_DETECTOR_H
#define PROSPERITY_REFERENCE_DETECTOR_H

#include <cstdint>
#include <vector>

#include "bitmatrix/bit_matrix.h"

namespace prosperity {

/** Output of detecting one tile. */
struct DetectionResult
{
    /**
     * subset_mask[i] has bit j set iff row j's spike set is a subset of
     * row i's spike set and j != i (the TCAM's Subset Index vector for
     * query row i).
     */
    std::vector<BitVector> subset_mask;

    /** popcounts[i] = number of ones (NO) of row i. */
    std::vector<std::size_t> popcounts;

    std::size_t rows() const { return popcounts.size(); }
};

/** TCAM + popcount detector. */
class Detector
{
  public:
    /**
     * Detect subset and popcount information for every row of `tile`.
     * Rows beyond the TCAM depth are rejected by the caller (tiles are
     * always cropped to at most the configured m).
     *
     * Word-parallel implementation: candidate rows are counting-sorted
     * by popcount so each query row i only scans candidates j with
     * NO(j) <= NO(i) (a subset can never have more ones than its
     * superset), and each surviving candidate is prefiltered by a
     * one-word occupancy signature (BitVector::signature) before the
     * full early-exit word comparison runs. The result is bitwise
     * identical to detectNaive() — the golden tests assert this — but
     * the expensive comparisons collapse to roughly the true matches.
     */
    DetectionResult detect(const BitMatrix& tile) const;

    /**
     * Retained O(m^2) reference implementation: the all-pairs TCAM
     * sweep the optimized detect() is validated and benchmarked
     * against (tests/test_detector.cc, tests/test_tile_analysis.cc).
     */
    DetectionResult detectNaive(const BitMatrix& tile) const;

    /**
     * Cycles for the ProSparsity *processing phase* of a tile with
     * `rows` rows: the Step 2-6 pipeline issues one row per cycle
     * through five stages => rows + 4 (Sec. VI-A). Preloading and the
     * bitonic sort run concurrently and never dominate.
     */
    static std::size_t
    phaseCycles(std::size_t rows)
    {
        return rows == 0 ? 0 : rows + 4;
    }

    /** TCAM cell compares performed: one broadside search per row. */
    static double
    tcamBitOps(std::size_t rows, std::size_t cols)
    {
        return static_cast<double>(rows) * static_cast<double>(rows) *
               static_cast<double>(cols);
    }
};

} // namespace prosperity

#endif // PROSPERITY_REFERENCE_DETECTOR_H
