/**
 * @file
 * Tests for the Pruner (Sec. V-C): single-prefix selection under the
 * paper's pruning rules, and pattern generation.
 */

#include <gtest/gtest.h>

#include "reference/detector.h"
#include "reference/pruner.h"
#include "sim/rng.h"

namespace prosperity {
namespace {

SparsityTable
pruneTile(const BitMatrix& tile)
{
    const DetectionResult detection = Detector().detect(tile);
    return Pruner().prune(tile, detection);
}

TEST(Pruner, PaperRow2SelectsRow1)
{
    // Fig. 5 (b): Row 2 (1011) has subset candidates {0, 1, 3}; Row 1
    // (1001, 2 ones, larger index than Row 0 on the tie) wins... both
    // Row 0 (1010) and Row 1 (1001) have 2 ones; the largest-index rule
    // picks Row 1, matching the paper's walkthrough.
    const BitMatrix tile = BitMatrix::fromStrings({
        "1010", "1001", "1011", "0010", "1101", "1101"});
    const SparsityTable table = pruneTile(tile);
    EXPECT_EQ(table[2].prefix, 1);
    EXPECT_EQ(table[2].kind, PrefixKind::kPartialMatch);
    EXPECT_EQ(table[2].pattern.toString(), "0010");
}

TEST(Pruner, ExactMatchUsesSmallerIndexAsPrefix)
{
    const BitMatrix tile = BitMatrix::fromStrings({
        "1010", "1001", "1011", "0010", "1101", "1101"});
    const SparsityTable table = pruneTile(tile);
    // Row 5 reuses Row 4 entirely (EM), pattern all-zero.
    EXPECT_EQ(table[5].prefix, 4);
    EXPECT_EQ(table[5].kind, PrefixKind::kExactMatch);
    EXPECT_TRUE(table[5].pattern.none());
    // Row 4 must NOT pick Row 5 (larger-index EM is a violation); its
    // best legal prefix is Row 1 (1001, subset with 2 ones).
    EXPECT_EQ(table[4].prefix, 1);
    EXPECT_EQ(table[4].kind, PrefixKind::kPartialMatch);
    EXPECT_EQ(table[4].pattern.toString(), "0100");
}

TEST(Pruner, EmChainLinksThroughLargestIndex)
{
    const BitMatrix tile = BitMatrix::fromStrings({
        "1100", "1100", "1100"});
    const SparsityTable table = pruneTile(tile);
    EXPECT_FALSE(table[0].hasPrefix());
    EXPECT_EQ(table[1].prefix, 0);
    // Row 2 ties between Row 0 and Row 1; largest index wins.
    EXPECT_EQ(table[2].prefix, 1);
}

TEST(Pruner, ArgmaxPrefersLargestSubset)
{
    const BitMatrix tile = BitMatrix::fromStrings({
        "1000",  // 0: subset of 2, 1 one
        "1100",  // 1: subset of 2, 2 ones  <- best
        "1110",  // 2
    });
    const SparsityTable table = pruneTile(tile);
    EXPECT_EQ(table[2].prefix, 1);
    EXPECT_EQ(table[2].pattern.toString(), "0010");
}

TEST(Pruner, SingleSpikeRowsUseExactMatchOnly)
{
    const BitMatrix tile = BitMatrix::fromStrings({
        "1000",
        "1000", // identical 1-spike row: EM reuse applies
        "0100", // different 1-spike row: no candidate
        "0000", // empty: nothing to reuse
    });
    const SparsityTable table = pruneTile(tile);
    EXPECT_TRUE(table[1].hasPrefix());
    EXPECT_EQ(table[1].prefix, 0);
    EXPECT_EQ(table[1].kind, PrefixKind::kExactMatch);
    EXPECT_TRUE(table[1].pattern.none());
    EXPECT_FALSE(table[2].hasPrefix());
    EXPECT_FALSE(table[3].hasPrefix());
    EXPECT_EQ(table[2].pattern.toString(), "0100");
}

TEST(Pruner, PatternPlusPrefixReconstructsRow)
{
    Rng rng(12);
    for (int trial = 0; trial < 20; ++trial) {
        BitMatrix tile(48, 16);
        tile.randomize(rng, 0.35);
        const SparsityTable table = pruneTile(tile);
        for (std::size_t i = 0; i < tile.rows(); ++i) {
            const PrefixEntry& e = table[i];
            if (!e.hasPrefix()) {
                EXPECT_EQ(e.pattern, tile.row(i));
                continue;
            }
            const BitVector& prefix_row =
                tile.row(static_cast<std::size_t>(e.prefix));
            // Disjointness: pattern AND prefix == 0.
            EXPECT_TRUE((e.pattern & prefix_row).none());
            // Reconstruction: pattern OR prefix == row.
            EXPECT_EQ(e.pattern | prefix_row, tile.row(i));
        }
    }
}

TEST(Pruner, PrefixRespectsPartialOrdering)
{
    // Prefix must have strictly fewer ones, or equal ones and smaller
    // index — the invariant the overhead-free dispatcher relies on.
    Rng rng(13);
    for (int trial = 0; trial < 20; ++trial) {
        BitMatrix tile(64, 16);
        tile.randomize(rng, 0.25);
        const SparsityTable table = pruneTile(tile);
        for (std::size_t i = 0; i < tile.rows(); ++i) {
            if (!table[i].hasPrefix())
                continue;
            const auto p = static_cast<std::size_t>(table[i].prefix);
            const std::size_t no_p = table[p].popcount;
            const std::size_t no_i = table[i].popcount;
            EXPECT_TRUE(no_p < no_i || (no_p == no_i && p < i))
                << "row " << i << " prefix " << p;
        }
    }
}

TEST(Pruner, KindMatchesPopcountRelation)
{
    Rng rng(14);
    BitMatrix tile(96, 16);
    tile.randomize(rng, 0.2);
    const SparsityTable table = pruneTile(tile);
    for (std::size_t i = 0; i < tile.rows(); ++i) {
        if (!table[i].hasPrefix())
            continue;
        const auto p = static_cast<std::size_t>(table[i].prefix);
        if (table[i].kind == PrefixKind::kExactMatch) {
            EXPECT_EQ(table[p].popcount, table[i].popcount);
            EXPECT_TRUE(table[i].pattern.none());
        } else {
            EXPECT_LT(table[p].popcount, table[i].popcount);
            EXPECT_FALSE(table[i].pattern.none());
        }
    }
}

} // namespace
} // namespace prosperity
