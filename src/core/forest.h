/**
 * @file
 * ProSparsity Forest (Sec. III-D).
 *
 * After pruning, every row has at most one prefix, so the prefix
 * pointers form a directed forest whose topological order is the legal
 * execution order. The hardware stores only the O(m) prefix pointers
 * (TileAnalysis::prefixes()); this helper materializes the suffix
 * (children) lists when a traversal or a structural check needs them.
 */

#ifndef PROSPERITY_CORE_FOREST_H
#define PROSPERITY_CORE_FOREST_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace prosperity {

/** Materialized forest view over a tile's prefix pointers. */
class ProsparsityForest
{
  public:
    /** Build from each row's prefix index (negative: no prefix). */
    explicit ProsparsityForest(const std::vector<std::int32_t>& prefixes);

    std::size_t size() const { return children_.size(); }

    /** Rows with no prefix (tree roots), ascending. */
    const std::vector<std::size_t>& roots() const { return roots_; }

    /** Suffix rows of `row` (rows whose prefix is `row`), ascending. */
    const std::vector<std::size_t>& children(std::size_t row) const;

    /** Depth of the deepest tree (a single node has depth 1). */
    std::size_t depth() const { return depth_; }

    /** Number of trees (== roots().size()). */
    std::size_t treeCount() const { return roots_.size(); }

    /**
     * Whether the prefix pointers are acyclic (always true for a
     * pruned tile; exposed for property tests).
     */
    bool isAcyclic() const { return acyclic_; }

    /** Breadth-first topological order from the roots. */
    std::vector<std::size_t> bfsOrder() const;

  private:
    std::vector<std::vector<std::size_t>> children_;
    std::vector<std::size_t> roots_;
    std::size_t depth_ = 0;
    bool acyclic_ = true;
};

} // namespace prosperity

#endif // PROSPERITY_CORE_FOREST_H
