#include "product_gemm.h"

#include <vector>

#include "core/forest.h"
#include "core/tile_analysis.h"
#include "sim/logging.h"

namespace prosperity {

ProductGemm::Result
ProductGemm::multiply(const BitMatrix& spikes,
                      const WeightMatrix& weights) const
{
    PROSPERITY_ASSERT(spikes.cols() == weights.rows(),
                      "GeMM inner dimensions disagree");
    const std::size_t M = spikes.rows();
    const std::size_t K = spikes.cols();
    const std::size_t N = weights.cols();

    Result result;
    result.output = OutputMatrix(M, N, 0);
    result.dense_ops = static_cast<double>(M) * static_cast<double>(K) *
                       static_cast<double>(N);

    for (std::size_t r0 = 0; r0 < M; r0 += tile_.m) {
        for (std::size_t c0 = 0; c0 < K; c0 += tile_.k) {
            const BitMatrix tile = spikes.tile(r0, c0, tile_.m, tile_.k);
            const TileAnalysis fe(tile);
            const std::size_t rows = tile.rows();

            // Tile-local output rows: the Processor's output buffer.
            std::vector<std::vector<std::int32_t>> local(
                rows, std::vector<std::int32_t>(N, 0));

            const auto issue = [&](const std::size_t row) {
                std::vector<std::int32_t>& acc = local[row];
                BitVector pattern = tile.row(row);
                if (fe.hasPrefix(row)) {
                    // Step 9: prefix result is the starting partial sum.
                    const auto p = static_cast<std::size_t>(fe.prefix(row));
                    acc = local[p];
                    ++result.prefix_hits;
                    if (fe.isExactMatch(row))
                        ++result.exact_matches;
                    else
                        ++result.partial_matches;
                    // Sparsify: the prefix is a subset, so XOR is the
                    // set difference.
                    pattern ^= tile.row(p);
                }
                // Steps 10-11: accumulate the residual pattern's weights.
                for (std::size_t bit = pattern.findFirst();
                     bit < tile.cols(); bit = pattern.findNext(bit)) {
                    const std::int32_t* w = weights.rowPtr(c0 + bit);
                    for (std::size_t col = 0; col < N; ++col)
                        acc[col] += w[col];
                    result.product_ops += static_cast<double>(N);
                }
                result.bit_ops += static_cast<double>(fe.popcount(row)) *
                                  static_cast<double>(N);
            };
            if (dispatch_ == DispatchMode::kOverheadFree) {
                for (const std::uint32_t row : fe.order())
                    issue(row);
            } else {
                for (const std::size_t row :
                     ProsparsityForest(fe.prefixes()).bfsOrder())
                    issue(row);
            }

            // Step 12: accumulate the tile's rows onto the output.
            for (std::size_t row = 0; row < rows; ++row) {
                std::int32_t* out = result.output.rowPtr(r0 + row);
                for (std::size_t col = 0; col < N; ++col)
                    out[col] += local[row][col];
            }
        }
    }
    return result;
}

OutputMatrix
ProductGemm::referenceMultiply(const BitMatrix& spikes,
                               const WeightMatrix& weights)
{
    PROSPERITY_ASSERT(spikes.cols() == weights.rows(),
                      "GeMM inner dimensions disagree");
    const std::size_t M = spikes.rows();
    const std::size_t N = weights.cols();
    OutputMatrix out(M, N, 0);
    for (std::size_t r = 0; r < M; ++r) {
        const BitVector& row = spikes.row(r);
        std::int32_t* acc = out.rowPtr(r);
        for (std::size_t bit = row.findFirst(); bit < spikes.cols();
             bit = row.findNext(bit)) {
            const std::int32_t* w = weights.rowPtr(bit);
            for (std::size_t col = 0; col < N; ++col)
                acc[col] += w[col];
        }
    }
    return out;
}

} // namespace prosperity
