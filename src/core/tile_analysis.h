/**
 * @file
 * The ProSparsity tile front end (Secs. V-B to V-D) as one pass.
 *
 * The hardware detects subset rows with a TCAM plus popcount units
 * (Detector), keeps one prefix per row (Pruner) and issues rows in
 * popcount order (Dispatcher). Functionally all three collapse into a
 * single popcount-ordered scan:
 *
 *  1. counting-sort the rows by number of ones (NO), ties by index —
 *     exactly the Dispatcher's stable sort, i.e. the overhead-free
 *     issue order;
 *  2. for each non-empty row, scan the candidates backwards from the
 *     row's own position in that order and stop at the first subset.
 *
 * Candidates before a row's position have a lower NO, or an equal NO
 * and a lower index, so the first subset met walking backwards is the
 * one with maximum NO, ties to the largest index, never an equal-NO
 * peer with a larger index — the Pruner's rules verbatim. Because a
 * prefix is a subset of its row, the residual pattern's popcount is
 * NO(row) - NO(prefix): no subset matrix, pattern vector or sort is
 * ever built. The retained stage-by-stage model lives under
 * tests/reference/ and pins this pass bit for bit
 * (tests/test_tile_analysis.cc).
 */

#ifndef PROSPERITY_CORE_TILE_ANALYSIS_H
#define PROSPERITY_CORE_TILE_ANALYSIS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bitmatrix/bit_matrix.h"

namespace prosperity {

/** Per-row NO and prefix of one tile, computed once. */
class TileAnalysis
{
  public:
    static constexpr std::int32_t kNoPrefix = -1;

    /** Analyze every row of `tile` (any m, any k). */
    explicit TileAnalysis(const BitMatrix& tile);

    std::size_t rows() const { return popcount_.size(); }

    /** Number of ones (NO) of `row`. */
    std::size_t popcount(std::size_t row) const { return popcount_[row]; }

    /** Prefix row of `row`, or kNoPrefix. */
    std::int32_t prefix(std::size_t row) const { return prefix_[row]; }
    bool hasPrefix(std::size_t row) const
    {
        return prefix_[row] != kNoPrefix;
    }

    /** Popcount of the residual pattern: NO(row) - NO(prefix). */
    std::size_t residualPopcount(std::size_t row) const
    {
        return hasPrefix(row)
                   ? popcount_[row] -
                         popcount_[static_cast<std::size_t>(prefix_[row])]
                   : popcount_[row];
    }

    /** An exact match: the prefix holds the row's whole spike set. */
    bool isExactMatch(std::size_t row) const
    {
        return hasPrefix(row) && residualPopcount(row) == 0;
    }

    /** Prefix of every row (kNoPrefix for roots). */
    const std::vector<std::int32_t>& prefixes() const { return prefix_; }

    /**
     * Every row ascending by NO, ties by index — the overhead-free
     * issue order. A prefix always precedes its suffixes.
     */
    const std::vector<std::uint32_t>& order() const { return order_; }

    /**
     * Table lookups of the traversal dispatcher: each row walks its
     * prefix chain to the root, one lookup per hop plus its own
     * (Sec. V-D's O(m * d) search). One pass in issue order.
     */
    std::size_t prefixChainHops() const;

    /**
     * Largest NO among rows with NO in [min_no, max_no] whose spike
     * set is a subset of `query` (same width as the tile's rows), or 0
     * when none is. Density analysis uses it to find a second prefix
     * inside a residual pattern.
     */
    std::size_t largestSubsetPopcount(const BitVector& query,
                                      std::size_t min_no,
                                      std::size_t max_no) const;

  private:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    /**
     * Highest sorted position in [begin, end) whose row is a subset of
     * `query` (`width_` words, occupancy signature `query_sig`), or
     * kNone.
     */
    std::size_t lastSubset(const std::uint64_t* query,
                           std::uint64_t query_sig, std::size_t begin,
                           std::size_t end) const;

    /** First sorted position holding NO >= `no` (clamped to rows()). */
    std::size_t bucketBegin(std::size_t no) const;

    std::vector<std::uint32_t> popcount_;
    std::vector<std::int32_t> prefix_;
    std::vector<std::uint32_t> order_;
    /** bucket_end_[p]: one past the last sorted position with NO <= p. */
    std::vector<std::uint32_t> bucket_end_;
    /** Rows' words gathered in sorted order, `width_` words each. */
    std::vector<std::uint64_t> words_;
    /** Occupancy signatures in sorted order (multi-word rows only). */
    std::vector<std::uint64_t> signatures_;
    /** Words compared per row: logical count, or the padded stride for
     *  rows of at least one stride (tail-free kernel sweeps). */
    std::size_t width_ = 0;
};

} // namespace prosperity

#endif // PROSPERITY_CORE_TILE_ANALYSIS_H
