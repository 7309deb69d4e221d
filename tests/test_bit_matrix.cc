/**
 * @file
 * Unit tests for BitMatrix: spike-matrix storage, tiling, density.
 */

#include <gtest/gtest.h>

#include "bitmatrix/bit_matrix.h"
#include "bitmatrix/dense_matrix.h"
#include "sim/rng.h"

namespace prosperity {
namespace {

BitMatrix
paperFig1Matrix()
{
    // The 6x4 spike matrix of Fig. 1 (b) / Fig. 2 (a).
    return BitMatrix::fromStrings({
        "1010", // Row 0
        "1001", // Row 1
        "1011", // Row 2
        "0010", // Row 3
        "1101", // Row 4
        "1101", // Row 5
    });
}

TEST(BitMatrix, FromStringsShapeAndBits)
{
    const BitMatrix m = paperFig1Matrix();
    EXPECT_EQ(m.rows(), 6u);
    EXPECT_EQ(m.cols(), 4u);
    EXPECT_TRUE(m.test(0, 0));
    EXPECT_FALSE(m.test(0, 1));
    EXPECT_TRUE(m.test(5, 3));
    EXPECT_EQ(m.popcount(), 14u); // 14 spikes = 14 bit-sparse OPs (Fig. 1)
}

TEST(BitMatrix, DensityMatchesPopcount)
{
    const BitMatrix m = paperFig1Matrix();
    EXPECT_DOUBLE_EQ(m.density(), 14.0 / 24.0);
}

TEST(BitMatrix, TileExtractsSubmatrix)
{
    const BitMatrix m = paperFig1Matrix();
    const BitMatrix t = m.tile(1, 1, 3, 2);
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    // Rows 1..3, cols 1..2: "00", "01", "01".
    EXPECT_EQ(t.row(0).toString(), "00");
    EXPECT_EQ(t.row(1).toString(), "01");
    EXPECT_EQ(t.row(2).toString(), "01");
}

TEST(BitMatrix, TileCropsAtEdges)
{
    const BitMatrix m = paperFig1Matrix();
    const BitMatrix t = m.tile(4, 2, 256, 16);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_EQ(t.row(0).toString(), "01");
    EXPECT_EQ(t.row(1).toString(), "01");
}

TEST(BitMatrix, FullTileIsIdentity)
{
    const BitMatrix m = paperFig1Matrix();
    EXPECT_EQ(m.tile(0, 0, 6, 4), m);
    EXPECT_EQ(m.tile(0, 0, 100, 100), m);
}

TEST(BitMatrix, TilePreservesBitsAcrossWordBoundaries)
{
    Rng rng(3);
    BitMatrix m(40, 300);
    m.randomize(rng, 0.3);
    const BitMatrix t = m.tile(10, 60, 20, 70);
    for (std::size_t r = 0; r < t.rows(); ++r)
        for (std::size_t c = 0; c < t.cols(); ++c)
            EXPECT_EQ(t.test(r, c), m.test(10 + r, 60 + c));
}

TEST(BitMatrix, CroppedTilesCoverEveryBitOnce)
{
    Rng rng(9);
    BitMatrix m(70, 45);
    m.randomize(rng, 0.4);
    std::size_t bits = 0;
    std::size_t tiles = 0;
    for (std::size_t r = 0; r < m.rows(); r += 32) {
        for (std::size_t c = 0; c < m.cols(); c += 16) {
            bits += m.tile(r, c, 32, 16).popcount();
            ++tiles;
        }
    }
    EXPECT_EQ(bits, m.popcount());
    EXPECT_EQ(tiles, 3u * 3u); // ceil(70/32) x ceil(45/16)
}

TEST(GemmShape, DenseOps)
{
    const GemmShape shape{6, 4, 3};
    EXPECT_DOUBLE_EQ(shape.denseOps(), 72.0);
}

TEST(DenseMatrix, AccessAndRandomize)
{
    WeightMatrix w(4, 5);
    EXPECT_EQ(w.rows(), 4u);
    EXPECT_EQ(w.cols(), 5u);
    w.at(2, 3) = -7;
    EXPECT_EQ(w.at(2, 3), -7);

    Rng rng(1);
    w.randomizeInt(rng, -127, 127);
    for (std::size_t r = 0; r < w.rows(); ++r)
        for (std::size_t c = 0; c < w.cols(); ++c) {
            EXPECT_GE(w.at(r, c), -127);
            EXPECT_LE(w.at(r, c), 127);
        }
}

TEST(DenseMatrix, RowPtrIsContiguous)
{
    WeightMatrix w(3, 4);
    w.at(1, 0) = 10;
    w.at(1, 3) = 13;
    const std::int32_t* row = w.rowPtr(1);
    EXPECT_EQ(row[0], 10);
    EXPECT_EQ(row[3], 13);
}

} // namespace
} // namespace prosperity
