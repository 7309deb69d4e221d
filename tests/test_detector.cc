/**
 * @file
 * Tests for the TCAM Detector (Sec. V-B): subset-index masks and
 * number-of-ones temporal information.
 */

#include <gtest/gtest.h>

#include "reference/detector.h"
#include "sim/rng.h"

namespace prosperity {
namespace {

BitMatrix
fig5Matrix()
{
    // Fig. 5 (a): the 6-row tile the paper walks through.
    return BitMatrix::fromStrings({
        "1010", // 0
        "1001", // 1
        "1011", // 2
        "0010", // 3
        "1101", // 4  (paper Fig. 3 uses 1011 here; Fig. 5 uses 1101)
        "1101", // 5
    });
}

TEST(Detector, PopcountsMatchRows)
{
    const Detector detector;
    const DetectionResult r = detector.detect(fig5Matrix());
    ASSERT_EQ(r.rows(), 6u);
    const std::size_t expected[] = {2, 2, 3, 1, 3, 3};
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(r.popcounts[i], expected[i]) << "row " << i;
}

TEST(Detector, SubsetMaskForPaperQueryRow2)
{
    // Fig. 5 (a): querying Row 2 (1011) masks to X0XX and matches
    // Row 0 (1010), Row 1 (1001), Row 3 (0010) — and itself, which is
    // excluded from the mask.
    const Detector detector;
    const DetectionResult r = detector.detect(fig5Matrix());
    const BitVector& mask = r.subset_mask[2];
    EXPECT_TRUE(mask.test(0));
    EXPECT_TRUE(mask.test(1));
    EXPECT_TRUE(mask.test(3));
    EXPECT_FALSE(mask.test(2)) << "self-match must be excluded";
    EXPECT_FALSE(mask.test(4));
    EXPECT_FALSE(mask.test(5));
}

TEST(Detector, ExactMatchAppearsInBothMasks)
{
    const Detector detector;
    const DetectionResult r = detector.detect(fig5Matrix());
    // Rows 4 and 5 are identical (1101): each is a subset of the other.
    EXPECT_TRUE(r.subset_mask[4].test(5));
    EXPECT_TRUE(r.subset_mask[5].test(4));
}

TEST(Detector, EmptyRowsNeverMatch)
{
    const BitMatrix tile = BitMatrix::fromStrings({
        "0000",
        "1010",
        "0000",
    });
    const Detector detector;
    const DetectionResult r = detector.detect(tile);
    // Empty rows are trivially subsets but carry no reusable result.
    EXPECT_FALSE(r.subset_mask[1].test(0));
    EXPECT_FALSE(r.subset_mask[1].test(2));
    // Empty rows do not query either.
    EXPECT_TRUE(r.subset_mask[0].none());
    EXPECT_TRUE(r.subset_mask[2].none());
}

TEST(Detector, MaskSemanticsOnRandomTiles)
{
    Rng rng(31);
    for (int trial = 0; trial < 10; ++trial) {
        BitMatrix tile(64, 16);
        tile.randomize(rng, 0.3);
        const DetectionResult r = Detector().detect(tile);
        for (std::size_t i = 0; i < tile.rows(); ++i) {
            for (std::size_t j = 0; j < tile.rows(); ++j) {
                if (i == j)
                    continue;
                const bool expected = tile.row(j).popcount() > 0 &&
                                      tile.row(i).popcount() > 0 &&
                                      tile.row(j).isSubsetOf(tile.row(i));
                EXPECT_EQ(r.subset_mask[i].test(j), expected)
                    << "i=" << i << " j=" << j;
            }
        }
    }
}

/** Bitwise comparison of two detection results with diagnostics. */
void
expectIdentical(const DetectionResult& fast, const DetectionResult& naive)
{
    ASSERT_EQ(fast.rows(), naive.rows());
    for (std::size_t i = 0; i < fast.rows(); ++i) {
        EXPECT_EQ(fast.popcounts[i], naive.popcounts[i]) << "row " << i;
        EXPECT_EQ(fast.subset_mask[i], naive.subset_mask[i]) << "row " << i;
    }
}

TEST(DetectorGolden, OptimizedMatchesNaiveOnRandomTiles)
{
    // The word-parallel detect() must be bitwise identical to the
    // retained all-pairs reference across densities and tile shapes.
    const Detector detector;
    Rng rng(101);
    for (double density : {0.02, 0.1, 0.3, 0.6, 0.95}) {
        for (const auto& [rows, cols] :
             {std::pair<std::size_t, std::size_t>{256, 16},
              {64, 16}, {100, 48}, {31, 7}, {256, 130}}) {
            BitMatrix tile(rows, cols);
            tile.randomize(rng, density);
            expectIdentical(detector.detect(tile),
                            detector.detectNaive(tile));
        }
    }
}

TEST(DetectorGolden, OptimizedMatchesNaiveWithEmptyRows)
{
    const Detector detector;
    Rng rng(55);
    BitMatrix tile(128, 16);
    tile.randomize(rng, 0.2);
    // Force a band of all-zero rows plus some exact duplicates.
    for (std::size_t r = 40; r < 60; ++r)
        tile.row(r).clear();
    for (std::size_t r = 100; r < 110; ++r)
        tile.row(r) = tile.row(r - 100);
    expectIdentical(detector.detect(tile), detector.detectNaive(tile));
}

TEST(DetectorGolden, OptimizedMatchesNaiveOnClusteredTiles)
{
    // Subset-heavy tiles (the structure ProSparsity targets) exercise
    // the popcount buckets and signature prefilter much harder than
    // i.i.d. noise does.
    const Detector detector;
    Rng rng(77);
    for (int trial = 0; trial < 5; ++trial) {
        BitMatrix tile(96, 16);
        BitVector base(16);
        base.randomize(rng, 0.6);
        for (std::size_t r = 0; r < tile.rows(); ++r) {
            BitVector drop(16);
            drop.randomize(rng, 0.4);
            tile.row(r) = base.andNot(drop);
        }
        expectIdentical(detector.detect(tile),
                        detector.detectNaive(tile));
    }
}

TEST(DetectorGolden, DegenerateTiles)
{
    const Detector detector;
    expectIdentical(detector.detect(BitMatrix()),
                    detector.detectNaive(BitMatrix()));
    const BitMatrix all_zero(32, 16);
    expectIdentical(detector.detect(all_zero),
                    detector.detectNaive(all_zero));
    BitMatrix one_row(1, 16);
    one_row.set(0, 3);
    expectIdentical(detector.detect(one_row),
                    detector.detectNaive(one_row));
}

TEST(Detector, PhaseCyclesIsRowsPlusPipelineFill)
{
    // Sec. VI-A: m + 4 cycles for the five-stage one-row-per-cycle
    // pipeline.
    EXPECT_EQ(Detector::phaseCycles(256), 260u);
    EXPECT_EQ(Detector::phaseCycles(1), 5u);
    EXPECT_EQ(Detector::phaseCycles(0), 0u);
}

TEST(Detector, TcamBitOpsQuadraticInRows)
{
    // Sec. VII-G: TCAM bitwise ops are m^2 * k per tile.
    EXPECT_DOUBLE_EQ(Detector::tcamBitOps(256, 16), 256.0 * 256.0 * 16.0);
}

} // namespace
} // namespace prosperity
