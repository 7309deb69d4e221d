/**
 * @file
 * Tests for the ProSparsity Forest structure (Sec. III-D).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/forest.h"
#include "reference/detector.h"
#include "reference/pruner.h"
#include "sim/rng.h"

namespace prosperity {
namespace {

SparsityTable
pruneTile(const BitMatrix& tile)
{
    return Pruner().prune(tile, Detector().detect(tile));
}

TEST(Forest, PaperExampleStructure)
{
    const BitMatrix tile = BitMatrix::fromStrings({
        "1010", "1001", "1011", "0010", "1101", "1101"});
    const SparsityTable table = pruneTile(tile);
    const ProsparsityForest forest(prefixIndices(table));
    EXPECT_TRUE(forest.isAcyclic());
    // Row 2's prefix is Row 1; Rows 4->1, 5->4 (see pruner tests), so
    // Row 1 has children {2, 4} and Row 4 has child {5}.
    const auto& c1 = forest.children(1);
    EXPECT_TRUE(std::find(c1.begin(), c1.end(), 2u) != c1.end());
    EXPECT_TRUE(std::find(c1.begin(), c1.end(), 4u) != c1.end());
    EXPECT_EQ(forest.children(4).size(), 1u);
    EXPECT_EQ(forest.children(4).front(), 5u);
}

TEST(Forest, RootsAreRowsWithoutPrefix)
{
    const BitMatrix tile = BitMatrix::fromStrings({
        "1010", "1001", "1011", "0010", "1101", "1101"});
    const ProsparsityForest forest(prefixIndices(pruneTile(tile)));
    // Row 0 (1010) reuses Row 3 (0010) — the 3 -> 0 edge of Fig. 3 (b).
    // Row 1 has no subset and Row 3 has a single spike, so those two
    // are the roots.
    const std::vector<std::size_t> expected = {1, 3};
    EXPECT_EQ(forest.roots(), expected);
    EXPECT_EQ(forest.treeCount(), 2u);
}

TEST(Forest, DepthOfChain)
{
    // EM chain 0 -> 1 -> 2 -> 3 gives depth 4.
    const BitMatrix tile = BitMatrix::fromStrings({
        "1100", "1100", "1100", "1100"});
    const ProsparsityForest forest(prefixIndices(pruneTile(tile)));
    EXPECT_EQ(forest.depth(), 4u);
    EXPECT_EQ(forest.treeCount(), 1u);
}

TEST(Forest, SingletonNodesHaveDepthOne)
{
    const BitMatrix tile = BitMatrix::fromStrings({
        "1000", "0100", "0010"});
    const ProsparsityForest forest(prefixIndices(pruneTile(tile)));
    EXPECT_EQ(forest.depth(), 1u);
    EXPECT_EQ(forest.treeCount(), 3u);
}

TEST(Forest, BfsOrderIsTopological)
{
    Rng rng(8);
    for (int trial = 0; trial < 10; ++trial) {
        BitMatrix tile(128, 16);
        tile.randomize(rng, 0.25);
        const SparsityTable table = pruneTile(tile);
        const ProsparsityForest forest(prefixIndices(table));
        const auto order = forest.bfsOrder();
        ASSERT_EQ(order.size(), tile.rows());

        std::vector<std::size_t> position(order.size());
        for (std::size_t idx = 0; idx < order.size(); ++idx)
            position[order[idx]] = idx;
        for (std::size_t i = 0; i < table.size(); ++i) {
            if (table[i].hasPrefix()) {
                EXPECT_LT(position[static_cast<std::size_t>(
                              table[i].prefix)],
                          position[i]);
            }
        }
    }
}

TEST(Forest, AlwaysAcyclicOnRandomTiles)
{
    Rng rng(22);
    for (int trial = 0; trial < 20; ++trial) {
        BitMatrix tile(96, 16);
        tile.randomize(rng, 0.15 + 0.03 * trial);
        const ProsparsityForest forest(prefixIndices(pruneTile(tile)));
        EXPECT_TRUE(forest.isAcyclic());
    }
}

} // namespace
} // namespace prosperity
