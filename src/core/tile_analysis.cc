#include "tile_analysis.h"

#include <algorithm>

#include "bitmatrix/simd_dispatch.h"
#include "bitmatrix/word_kernels.h"
#include "sim/logging.h"

namespace prosperity {

TileAnalysis::TileAnalysis(const BitMatrix& tile)
    : popcount_(tile.rows()), prefix_(tile.rows(), kNoPrefix),
      order_(tile.rows())
{
    const std::size_t m = tile.rows();
    if (m == 0)
        return;

    // Rows of at least one stride are swept over their whole padded
    // stride (zero pad, no scalar tails); narrower rows use the logical
    // count — the paper's 16-column tiles are one word per row and
    // must not pay for an 8-word sweep.
    const std::size_t logical = tile.row(0).wordCount();
    width_ = logical >= BitVector::kRowStrideWords
                 ? tile.row(0).strideWords()
                 : logical;
    const SimdOps& ops = simdOps();
    std::size_t max_pc = 0;
    for (std::size_t i = 0; i < m; ++i) {
        const std::uint64_t* w = tile.row(i).paddedWords().data();
        const std::size_t pc =
            width_ == 1 ? popcount64(w[0]) : ops.popcountWords(w, width_);
        popcount_[i] = static_cast<std::uint32_t>(pc);
        max_pc = std::max(max_pc, pc);
    }

    // Counting sort by NO, stable in the row index: the overhead-free
    // issue order, empty rows first.
    bucket_end_.assign(max_pc + 1, 0);
    for (const std::uint32_t pc : popcount_)
        ++bucket_end_[pc];
    for (std::size_t p = 1; p <= max_pc; ++p)
        bucket_end_[p] += bucket_end_[p - 1];
    {
        std::vector<std::uint32_t> cursor(max_pc + 1, 0);
        for (std::size_t p = 1; p <= max_pc; ++p)
            cursor[p] = bucket_end_[p - 1];
        for (std::size_t i = 0; i < m; ++i)
            order_[cursor[popcount_[i]]++] = static_cast<std::uint32_t>(i);
    }
    if (max_pc == 0)
        return; // all rows empty: nothing to reuse

    // Rows gathered in sorted order so every backward scan streams one
    // contiguous array.
    words_.resize(m * width_);
    for (std::size_t t = 0; t < m; ++t)
        std::copy_n(tile.row(order_[t]).paddedWords().data(), width_,
                    words_.data() + t * width_);
    if (width_ > 1) {
        signatures_.resize(m);
        for (std::size_t t = 0; t < m; ++t)
            signatures_[t] = tile.row(order_[t]).signature();
    }

    // Empty rows neither query nor match (the hardware's valid bit
    // masks them out of the TCAM match line).
    const std::size_t first = bucket_end_[0];
    for (std::size_t t = first; t < m; ++t) {
        const std::size_t hit =
            lastSubset(words_.data() + t * width_,
                       width_ > 1 ? signatures_[t] : 0, first, t);
        if (hit != kNone)
            prefix_[order_[t]] = static_cast<std::int32_t>(order_[hit]);
    }
}

std::size_t
TileAnalysis::lastSubset(const std::uint64_t* query, std::uint64_t query_sig,
                         std::size_t begin, std::size_t end) const
{
    if (width_ == 1) {
        const std::uint64_t outside = ~query[0];
        for (std::size_t s = end; s > begin;) {
            --s;
            if ((words_[s] & outside) == 0)
                return s;
        }
        return kNone;
    }
    // Multi-word rows: the one-word signature rejects most candidates
    // before the dispatched early-exit subset kernel runs.
    const SimdOps& ops = simdOps();
    const std::uint64_t outside_sig = ~query_sig;
    for (std::size_t s = end; s > begin;) {
        --s;
        if ((signatures_[s] & outside_sig) == 0 &&
            ops.isSubsetOfWords(words_.data() + s * width_, query, width_))
            return s;
    }
    return kNone;
}

std::size_t
TileAnalysis::bucketBegin(std::size_t no) const
{
    if (no == 0)
        return 0;
    return no - 1 < bucket_end_.size() ? bucket_end_[no - 1] : rows();
}

std::size_t
TileAnalysis::prefixChainHops() const
{
    std::vector<std::uint32_t> depth(rows());
    std::size_t hops = 0;
    for (const std::uint32_t row : order_) {
        const std::int32_t p = prefix_[row];
        depth[row] =
            p == kNoPrefix ? 1 : depth[static_cast<std::size_t>(p)] + 1;
        hops += depth[row];
    }
    return hops;
}

std::size_t
TileAnalysis::largestSubsetPopcount(const BitVector& query,
                                    std::size_t min_no,
                                    std::size_t max_no) const
{
    if (bucket_end_.size() < 2)
        return 0; // no non-empty row
    PROSPERITY_ASSERT(query.wordCount() == 0 ||
                          query.strideWords() >= width_,
                      "query is narrower than the tile's rows");
    const std::size_t begin = bucketBegin(std::max<std::size_t>(min_no, 1));
    const std::size_t end =
        max_no < bucket_end_.size() ? bucket_end_[max_no] : rows();
    if (begin >= end)
        return 0;
    const std::size_t hit =
        lastSubset(query.paddedWords().data(),
                   width_ > 1 ? query.signature() : 0, begin, end);
    return hit == kNone ? 0 : popcount_[order_[hit]];
}

} // namespace prosperity
