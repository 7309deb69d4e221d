/**
 * @file
 * Differential tests: the fused TileAnalysis front end against the
 * stage-by-stage reference (detectNaive -> Pruner -> Dispatcher,
 * tests/reference/).
 *
 * Seeded random tiles span m in [1, 1024], k in [1, 130] and densities
 * from 0 to 1, plus tiles built from duplicated rows (exact-match
 * chains) and nested rows (deep partial-match chains). Every check runs
 * once per SIMD tier the host can execute, forced the way
 * test_simd_kernels forces them, and compares exactly:
 *
 *  - each row's NO and prefix, and the overhead-free issue order;
 *  - every TileStats field, in bit mode and in product mode under both
 *    dispatch modes;
 *  - ProductGemm::multiply against the dense referenceMultiply;
 *  - analyzeMatrix (one and two prefixes) against the subset-mask
 *    formulation it replaced.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/density.h"
#include "bitmatrix/simd_dispatch.h"
#include "core/product_gemm.h"
#include "core/tile_analysis.h"
#include "core/tile_pipeline.h"
#include "gen/spike_generator.h"
#include "reference/frontend.h"
#include "sim/rng.h"

namespace prosperity {
namespace {

const double kDensities[] = {0.0, 0.02, 0.1, 0.3, 0.7, 1.0};

/** How a random tile's rows relate to each other. */
enum class RowShape {
    kIndependent, ///< i.i.d. Bernoulli rows
    kDuplicated,  ///< most rows copy an earlier row (EM chains)
    kNested,      ///< most rows extend an earlier row by one bit
};

BitMatrix
randomTile(Rng& rng, std::size_t m, std::size_t k, double density,
           RowShape shape)
{
    BitMatrix tile(m, k);
    for (std::size_t r = 0; r < m; ++r) {
        BitVector& row = tile.row(r);
        const bool derive = shape != RowShape::kIndependent && r > 0 &&
                            rng.nextBool(0.8);
        if (!derive) {
            row.randomize(rng, density);
            continue;
        }
        row = tile.row(rng.nextBelow(r));
        if (shape == RowShape::kNested)
            row.set(rng.nextBelow(k));
    }
    return tile;
}

std::string
describe(std::size_t m, std::size_t k, double density, RowShape shape)
{
    return "m=" + std::to_string(m) + " k=" + std::to_string(k) +
           " density=" + std::to_string(density) +
           " shape=" + std::to_string(static_cast<int>(shape)) +
           " tier=" + simdTierName(activeSimdTier());
}

void
expectSameStats(const TileStats& got, const TileStats& want,
                const std::string& what)
{
    EXPECT_EQ(got.rows, want.rows) << what;
    EXPECT_EQ(got.cols, want.cols) << what;
    EXPECT_EQ(got.prosparsity_cycles, want.prosparsity_cycles) << what;
    EXPECT_EQ(got.compute_cycles, want.compute_cycles) << what;
    EXPECT_EQ(got.accum_row_ops, want.accum_row_ops) << what;
    EXPECT_EQ(got.floor_rows, want.floor_rows) << what;
    EXPECT_EQ(got.bit_row_ops, want.bit_row_ops) << what;
    EXPECT_EQ(got.prefix_hits, want.prefix_hits) << what;
    EXPECT_EQ(got.exact_matches, want.exact_matches) << what;
    EXPECT_EQ(got.partial_matches, want.partial_matches) << what;
    EXPECT_EQ(got.tcam_bit_ops, want.tcam_bit_ops) << what;
    EXPECT_EQ(got.popcount_ops, want.popcount_ops) << what;
    EXPECT_EQ(got.pruner_ops, want.pruner_ops) << what;
    EXPECT_EQ(got.sorter_compares, want.sorter_compares) << what;
    EXPECT_EQ(got.table_accesses, want.table_accesses) << what;
    EXPECT_EQ(got.prefix_loads, want.prefix_loads) << what;
}

/**
 * analyzeMatrix's per-tile report as it was computed from the full
 * subset mask: the second prefix is the largest other candidate that
 * fits inside the first prefix's residual pattern.
 */
DensityReport
referenceDensity(const BitMatrix& tile, bool two_prefix)
{
    const DetectionResult detection = Detector().detectNaive(tile);
    const SparsityTable table = Pruner().prune(tile, detection);
    DensityReport report;
    const std::size_t m = tile.rows();
    report.rows = static_cast<double>(m);
    report.bits_total =
        static_cast<double>(m) * static_cast<double>(tile.cols());
    for (std::size_t i = 0; i < m; ++i) {
        const PrefixEntry& entry = table[i];
        report.bits_set += static_cast<double>(entry.popcount);
        const std::size_t residual_one = entry.pattern.popcount();
        report.pattern_bits_one += static_cast<double>(residual_one);
        if (entry.hasPrefix()) {
            report.rows_one_prefix += 1.0;
            if (entry.kind == PrefixKind::kExactMatch)
                report.exact_matches += 1.0;
            else
                report.partial_matches += 1.0;
        }
        std::size_t best_pops = 1;
        bool found = false;
        if (two_prefix && entry.hasPrefix() && residual_one >= 2) {
            const BitVector& candidates = detection.subset_mask[i];
            for (std::size_t j = candidates.findFirst(); j < m;
                 j = candidates.findNext(j)) {
                if (static_cast<std::int32_t>(j) == entry.prefix)
                    continue;
                const std::size_t pops = detection.popcounts[j];
                if (pops > best_pops &&
                    tile.row(j).isSubsetOf(entry.pattern)) {
                    best_pops = pops;
                    found = true;
                }
            }
        }
        if (found) {
            report.rows_two_prefix += 1.0;
            report.pattern_bits_two +=
                static_cast<double>(residual_one - best_pops);
        } else {
            report.pattern_bits_two += static_cast<double>(residual_one);
        }
    }
    return report;
}

void
expectSameDensity(const DensityReport& got, const DensityReport& want,
                  const std::string& what)
{
    EXPECT_EQ(got.bits_total, want.bits_total) << what;
    EXPECT_EQ(got.bits_set, want.bits_set) << what;
    EXPECT_EQ(got.pattern_bits_one, want.pattern_bits_one) << what;
    EXPECT_EQ(got.pattern_bits_two, want.pattern_bits_two) << what;
    EXPECT_EQ(got.rows, want.rows) << what;
    EXPECT_EQ(got.rows_one_prefix, want.rows_one_prefix) << what;
    EXPECT_EQ(got.rows_two_prefix, want.rows_two_prefix) << what;
    EXPECT_EQ(got.exact_matches, want.exact_matches) << what;
    EXPECT_EQ(got.partial_matches, want.partial_matches) << what;
}

/** Runs every test body once per available SIMD tier. */
class TileAnalysisDiff : public ::testing::TestWithParam<SimdTier>
{
  protected:
    void SetUp() override
    {
        ASSERT_TRUE(setSimdTier(GetParam()))
            << "tier " << simdTierName(GetParam())
            << " was listed available but could not be forced";
    }

    void TearDown() override { resetSimdTier(); }

    /** Seeded tiles across the whole shape/density/row-shape space. */
    template <typename Check>
    void forEachTile(std::uint64_t seed, std::size_t count, Check check)
    {
        Rng rng(seed);
        for (std::size_t n = 0; n < count; ++n) {
            // Mostly modest tiles, with a full-depth one every few.
            const std::size_t m =
                n % 8 == 0 ? 1 + rng.nextBelow(1024)
                           : 1 + rng.nextBelow(300);
            const std::size_t k = 1 + rng.nextBelow(130);
            // Every (density, row shape) pair recurs.
            const std::size_t densities = std::size(kDensities);
            const double density = kDensities[n % densities];
            const auto shape = static_cast<RowShape>(n / densities % 3);
            check(randomTile(rng, m, k, density, shape),
                  describe(m, k, density, shape));
        }
    }
};

TEST_P(TileAnalysisDiff, PrefixesAndOrderMatchReference)
{
    forEachTile(1401, 60, [](const BitMatrix& tile,
                             const std::string& what) {
        const TileAnalysis fe(tile);
        const ReferenceFrontEnd ref =
            referenceFrontEnd(tile, DispatchMode::kOverheadFree);
        ASSERT_EQ(fe.rows(), ref.table.size()) << what;
        for (std::size_t i = 0; i < fe.rows(); ++i) {
            const PrefixEntry& entry = ref.table[i];
            ASSERT_EQ(fe.popcount(i), entry.popcount)
                << what << " row " << i;
            ASSERT_EQ(fe.prefix(i), entry.prefix) << what << " row " << i;
            ASSERT_EQ(fe.residualPopcount(i), entry.pattern.popcount())
                << what << " row " << i;
            ASSERT_EQ(fe.isExactMatch(i),
                      entry.kind == PrefixKind::kExactMatch)
                << what << " row " << i;
        }
        ASSERT_EQ(fe.order().size(), ref.dispatch.order.size()) << what;
        for (std::size_t t = 0; t < fe.order().size(); ++t)
            ASSERT_EQ(fe.order()[t], ref.dispatch.order[t])
                << what << " position " << t;
    });
}

TEST_P(TileAnalysisDiff, TileStatsMatchReferenceInEveryMode)
{
    struct Mode
    {
        SparsityMode sparsity;
        DispatchMode dispatch;
        std::size_t issue_width;
    };
    const Mode modes[] = {
        {SparsityMode::kBitSparsity, DispatchMode::kOverheadFree, 1},
        {SparsityMode::kProductSparsity, DispatchMode::kOverheadFree, 1},
        {SparsityMode::kProductSparsity, DispatchMode::kOverheadFree, 4},
        {SparsityMode::kProductSparsity, DispatchMode::kTreeTraversal, 1},
    };
    forEachTile(1402, 60, [&](const BitMatrix& tile,
                              const std::string& what) {
        for (const Mode& mode : modes) {
            const TilePipeline pipeline(mode.sparsity, mode.dispatch,
                                        mode.issue_width);
            expectSameStats(
                pipeline.process(tile),
                referenceTileStats(tile, mode.sparsity, mode.dispatch,
                                   mode.issue_width),
                what + " sparsity=" +
                    std::to_string(static_cast<int>(mode.sparsity)) +
                    " dispatch=" +
                    std::to_string(static_cast<int>(mode.dispatch)) +
                    " issue_width=" + std::to_string(mode.issue_width));
        }
    });
}

TEST_P(TileAnalysisDiff, ProductGemmMatchesDenseReference)
{
    forEachTile(1403, 24, [](const BitMatrix& spikes,
                             const std::string& what) {
        const WeightMatrix weights =
            randomWeights(spikes.cols(), 5, spikes.rows() + spikes.cols());
        const OutputMatrix dense =
            ProductGemm::referenceMultiply(spikes, weights);
        // Tiles smaller than the matrix exercise edge cropping too.
        for (const TileConfig tile : {TileConfig{}, TileConfig{64, 128, 16},
                                      TileConfig{97, 128, 33}}) {
            for (const DispatchMode dispatch :
                 {DispatchMode::kOverheadFree,
                  DispatchMode::kTreeTraversal}) {
                const ProductGemm gemm(tile, dispatch);
                const ProductGemm::Result result =
                    gemm.multiply(spikes, weights);
                EXPECT_EQ(result.output, dense)
                    << what << " tile " << tile.m << "x" << tile.k
                    << " dispatch " << static_cast<int>(dispatch);
                EXPECT_LE(result.product_ops, result.bit_ops) << what;
            }
        }
    });
}

TEST_P(TileAnalysisDiff, DensityMatchesSubsetMaskFormulation)
{
    forEachTile(1404, 48, [](const BitMatrix& tile,
                             const std::string& what) {
        DensityOptions options;
        options.tile = TileConfig{tile.rows(), 128, tile.cols()};
        options.max_sampled_tiles = 0;
        for (const bool two_prefix : {false, true}) {
            options.two_prefix = two_prefix;
            expectSameDensity(analyzeMatrix(tile, options),
                              referenceDensity(tile, two_prefix),
                              what + " two_prefix=" +
                                  std::to_string(two_prefix));
        }
    });
}

TEST_P(TileAnalysisDiff, DegenerateTiles)
{
    for (const BitMatrix& tile :
         {BitMatrix(0, 0), BitMatrix(0, 16), BitMatrix(7, 0),
          BitMatrix(1, 1), BitMatrix::fromStrings({"1"}),
          BitMatrix::fromStrings({"1", "1", "1"}),
          BitMatrix::fromStrings({"0", "1", "0", "1"})}) {
        const std::string what = "degenerate " +
                                 std::to_string(tile.rows()) + "x" +
                                 std::to_string(tile.cols());
        for (const DispatchMode dispatch :
             {DispatchMode::kOverheadFree, DispatchMode::kTreeTraversal})
            expectSameStats(
                TilePipeline(SparsityMode::kProductSparsity, dispatch)
                    .process(tile),
                referenceTileStats(tile, SparsityMode::kProductSparsity,
                                   dispatch),
                what);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllAvailableTiers, TileAnalysisDiff,
    ::testing::ValuesIn(availableSimdTiers()),
    [](const ::testing::TestParamInfo<SimdTier>& param_info) {
        return std::string(simdTierName(param_info.param));
    });

TEST(TileAnalysis, PaperExample)
{
    // Fig. 3: Row 0 (1010) reuses Row 3 (0010), Rows 2 and 4 reuse
    // Row 1 (1001), Row 5 is an exact match of Row 4.
    const TileAnalysis fe(BitMatrix::fromStrings(
        {"1010", "1001", "1011", "0010", "1101", "1101"}));
    const std::vector<std::int32_t> prefixes = {3, -1, 1, -1, 1, 4};
    EXPECT_EQ(fe.prefixes(), prefixes);
    EXPECT_TRUE(fe.isExactMatch(5));
    EXPECT_EQ(fe.residualPopcount(2), 1u);
    const std::vector<std::uint32_t> order = {3, 0, 1, 2, 4, 5};
    EXPECT_EQ(fe.order(), order);
    // Chain hops per row: depth 2, 1, 2, 1, 2 and 3 (5 -> 4 -> 1).
    EXPECT_EQ(fe.prefixChainHops(), 2u + 1u + 2u + 1u + 2u + 3u);
}

TEST(TileAnalysis, LargestSubsetPopcountHonorsBounds)
{
    const BitMatrix tile =
        BitMatrix::fromStrings({"1100", "1110", "0001", "1000"});
    const TileAnalysis fe(tile);
    const BitVector query = BitVector::fromString("1111");
    EXPECT_EQ(fe.largestSubsetPopcount(query, 1, 4), 3u);
    EXPECT_EQ(fe.largestSubsetPopcount(query, 1, 2), 2u);
    EXPECT_EQ(fe.largestSubsetPopcount(query, 4, 4), 0u);
    const BitVector low = BitVector::fromString("0011");
    EXPECT_EQ(fe.largestSubsetPopcount(low, 2, 4), 0u);
    EXPECT_EQ(fe.largestSubsetPopcount(low, 1, 4), 1u);
}

} // namespace
} // namespace prosperity
