#include "pruner.h"

#include "sim/logging.h"

namespace prosperity {

std::vector<std::int32_t>
prefixIndices(const SparsityTable& table)
{
    std::vector<std::int32_t> prefixes;
    prefixes.reserve(table.size());
    for (const PrefixEntry& entry : table)
        prefixes.push_back(entry.prefix);
    return prefixes;
}

SparsityTable
Pruner::prune(const BitMatrix& tile, const DetectionResult& detection) const
{
    const std::size_t m = tile.rows();
    PROSPERITY_ASSERT(detection.rows() == m,
                      "detection result does not match tile");
    SparsityTable table(m);

    for (std::size_t i = 0; i < m; ++i) {
        PrefixEntry& entry = table[i];
        entry.popcount = detection.popcounts[i];
        entry.pattern = tile.row(i);

        // Zero-spike rows have nothing to compute and nothing to reuse.
        // One-spike rows cannot use a partial match (a proper subset
        // would be empty) but do benefit from exact-match result reuse,
        // which the TCAM finds like any other subset.
        if (entry.popcount == 0)
            continue;

        const BitVector& candidates = detection.subset_mask[i];
        std::int32_t best = PrefixEntry::kNoPrefix;
        std::size_t best_popcount = 0;
        for (std::size_t j = candidates.findFirst(); j < m;
             j = candidates.findNext(j)) {
            const std::size_t no_j = detection.popcounts[j];
            // Proper-subset filter: an exact-match peer with a larger
            // index violates the partial ordering (its result is not
            // computed yet when this row issues).
            if (no_j == entry.popcount && j > i)
                continue;
            // Argmax on NO; ties keep the largest index (pruning rule 2).
            if (best == PrefixEntry::kNoPrefix || no_j > best_popcount ||
                (no_j == best_popcount &&
                 static_cast<std::size_t>(best) < j)) {
                best = static_cast<std::int32_t>(j);
                best_popcount = no_j;
            }
        }

        if (best != PrefixEntry::kNoPrefix) {
            entry.prefix = best;
            entry.kind = best_popcount == entry.popcount
                             ? PrefixKind::kExactMatch
                             : PrefixKind::kPartialMatch;
            // Sparsify: prefix is a subset, so XOR == set difference.
            entry.pattern = tile.row(i) ^
                            tile.row(static_cast<std::size_t>(best));
        }
    }
    return table;
}

} // namespace prosperity
