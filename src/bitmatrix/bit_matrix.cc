#include "bit_matrix.h"

#include <algorithm>

#include "sim/logging.h"

namespace prosperity {

BitMatrix::BitMatrix(std::size_t rows, std::size_t cols)
    : cols_(cols), rows_(rows, BitVector(cols))
{
}

BitMatrix
BitMatrix::fromStrings(const std::vector<std::string>& rows)
{
    if (rows.empty())
        return BitMatrix();
    BitMatrix m(rows.size(), rows.front().size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        PROSPERITY_ASSERT(rows[r].size() == m.cols_,
                          "ragged bit matrix literal");
        m.rows_[r] = BitVector::fromString(rows[r]);
    }
    return m;
}

BitVector&
BitMatrix::row(std::size_t r)
{
    PROSPERITY_ASSERT(r < rows_.size(), "row index out of range");
    return rows_[r];
}

const BitVector&
BitMatrix::row(std::size_t r) const
{
    PROSPERITY_ASSERT(r < rows_.size(), "row index out of range");
    return rows_[r];
}

std::size_t
BitMatrix::popcount() const
{
    std::size_t count = 0;
    for (const auto& r : rows_)
        count += r.popcount();
    return count;
}

double
BitMatrix::density() const
{
    const double bits =
        static_cast<double>(rows()) * static_cast<double>(cols());
    return bits == 0.0 ? 0.0 : static_cast<double>(popcount()) / bits;
}

BitMatrix
BitMatrix::tile(std::size_t row0, std::size_t col0, std::size_t tile_rows,
                std::size_t tile_cols) const
{
    PROSPERITY_ASSERT(row0 <= rows() && col0 <= cols(),
                      "tile origin out of range");
    const std::size_t r_end = std::min(rows(), row0 + tile_rows);
    const std::size_t c_end = std::min(cols(), col0 + tile_cols);
    BitMatrix out(r_end - row0, c_end - col0);
    // Word shifts: output word w holds source bits [col0 + 64w, +64),
    // the low part from source word base + w and the high part from
    // the next one; setWord masks off everything past c_end.
    const std::size_t base = col0 / 64;
    const std::size_t shift = col0 % 64;
    for (std::size_t r = row0; r < r_end; ++r) {
        const std::span<const std::uint64_t> src = rows_[r].words();
        BitVector& dst = out.rows_[r - row0];
        for (std::size_t w = 0; w < dst.wordCount(); ++w) {
            std::uint64_t word = src[base + w] >> shift;
            if (shift != 0 && base + w + 1 < src.size())
                word |= src[base + w + 1] << (64 - shift);
            dst.setWord(w, word);
        }
    }
    return out;
}

void
BitMatrix::randomize(Rng& rng, double density)
{
    for (auto& r : rows_)
        r.randomize(rng, density);
}

} // namespace prosperity
