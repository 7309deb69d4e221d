/**
 * @file
 * ProSparsity Pruner (Sec. V-C) — stage-by-stage reference model.
 *
 * Test-only, like reference/detector.h: core/tile_analysis.h applies
 * the same rules in its single backward scan.
 *
 * Reduces each row's subset candidates to at most one Prefix according
 * to the paper's pruning rules:
 *
 *  1. filter out partial-ordering violations: an exact-match peer with a
 *     *larger* index may not serve as prefix (the proper-subset filter
 *     of Fig. 5 (b), step 5);
 *  2. argmax: keep the candidate with the largest spike set (most ones);
 *  3. tie-break toward the largest row index.
 *
 * The XOR unit then forms the residual ProSparsity pattern
 * (suffix row XOR prefix row == S_suffix - S_prefix, since the prefix
 * is a subset).
 */

#ifndef PROSPERITY_REFERENCE_PRUNER_H
#define PROSPERITY_REFERENCE_PRUNER_H

#include <cstdint>
#include <vector>

#include "bitmatrix/bit_matrix.h"
#include "reference/detector.h"

namespace prosperity {

/** How a row relates to its selected prefix. */
enum class PrefixKind : std::uint8_t {
    kNone, ///< no usable prefix — the row is computed from scratch
    kPartialMatch,
    kExactMatch,
};

/** One product-sparsity-table entry (Fig. 3 (d) spatial information). */
struct PrefixEntry
{
    static constexpr std::int32_t kNoPrefix = -1;

    std::int32_t prefix = kNoPrefix; ///< prefix row index within the tile
    PrefixKind kind = PrefixKind::kNone;
    BitVector pattern;               ///< residual bits to accumulate
    std::size_t popcount = 0;        ///< NO of the row itself

    bool hasPrefix() const { return prefix != kNoPrefix; }
};

/** The pruned spatial information of one tile. */
using SparsityTable = std::vector<PrefixEntry>;

/** Each entry's prefix index (PrefixEntry::kNoPrefix for roots), the
 *  shape ProsparsityForest and TileAnalysis::prefixes() share. */
std::vector<std::int32_t> prefixIndices(const SparsityTable& table);

/** Prefix selection + pattern generation. */
class Pruner
{
  public:
    /**
     * Apply the pruning rules to a tile's detection result.
     *
     * @param tile The spike tile (for the XOR sparsify step).
     * @param detection Subset masks + popcounts from the Detector.
     */
    SparsityTable prune(const BitMatrix& tile,
                        const DetectionResult& detection) const;
};

} // namespace prosperity

#endif // PROSPERITY_REFERENCE_PRUNER_H
