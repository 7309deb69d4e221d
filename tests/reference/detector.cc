#include "detector.h"

#include <algorithm>
#include <cstdint>

#include "bitmatrix/simd_dispatch.h"
#include "bitmatrix/word_kernels.h"
#include "sim/logging.h"

namespace prosperity {

DetectionResult
Detector::detect(const BitMatrix& tile) const
{
    const std::size_t m = tile.rows();
    DetectionResult result;
    result.subset_mask.assign(m, BitVector(m));
    result.popcounts.resize(m);
    if (m == 0)
        return result;

    // Per-row word spans, popcounts and one-word occupancy signatures.
    // Popcounts and subset tests go through the dispatched SIMD table;
    // the signature scan is the scalar word_kernels.h loop. Wide rows
    // are swept over their whole padded stride (zero pad, so no
    // scalar tails); rows narrower than a stride use the logical count
    // — the paper's 16-column tiles are one word per row and must not
    // pay for an 8-word sweep.
    const SimdOps& ops = simdOps();
    const std::size_t logical_words = tile.row(0).wordCount();
    const std::size_t nwords =
        logical_words >= BitVector::kRowStrideWords
            ? tile.row(0).strideWords()
            : logical_words;
    std::vector<const std::uint64_t*> row_words(m);
    std::vector<std::uint64_t> sig(m);
    std::size_t max_pc = 0;
    for (std::size_t i = 0; i < m; ++i) {
        const BitVector& row = tile.row(i);
        row_words[i] = row.paddedWords().data();
        result.popcounts[i] = ops.popcountWords(row_words[i], nwords);
        sig[i] = row.signature();
        max_pc = std::max(max_pc, result.popcounts[i]);
    }
    if (max_pc == 0)
        return result; // all rows empty: no queries, no candidates

    // Counting-sort the non-empty rows by popcount (ascending, stable).
    // `bucket_end[p]` is one past the last sorted entry with popcount
    // <= p, so a query with NO(i) = p scans exactly order[0 ..
    // bucket_end[p]) — candidates with more ones can never be subsets.
    std::vector<std::size_t> bucket_end(max_pc + 1, 0);
    for (std::size_t i = 0; i < m; ++i)
        if (result.popcounts[i] > 0)
            ++bucket_end[result.popcounts[i]];
    for (std::size_t p = 1; p <= max_pc; ++p)
        bucket_end[p] += bucket_end[p - 1];
    std::vector<std::uint32_t> order(bucket_end[max_pc]);
    {
        std::vector<std::size_t> cursor(max_pc + 1, 0);
        for (std::size_t p = 1; p <= max_pc; ++p)
            cursor[p] = bucket_end[p - 1];
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t pc = result.popcounts[i];
            if (pc > 0)
                order[cursor[pc]++] = static_cast<std::uint32_t>(i);
        }
    }

    // Signatures gathered in sorted order: the per-query prefilter then
    // scans one contiguous array with signatureScanWords instead of
    // chasing order[] indirections word by word.
    std::vector<std::uint64_t> sig_sorted(order.size());
    for (std::size_t t = 0; t < order.size(); ++t)
        sig_sorted[t] = sig[order[t]];
    std::vector<std::uint32_t> survivors(order.size());

    // TCAM search per query row: signature prefilter over
    // the sorted candidates, then the fused early-exit word comparison
    // on the few survivors. For single-word rows (every k<=64 tile,
    // including the paper's 256x16 ones) the signature IS the row, so
    // the scan is exact and the confirmation loop is skipped entirely.
    // Empty rows neither query nor match (the hardware's valid bit
    // masks them out of the match line).
    const bool signature_is_exact = logical_words == 1;
    for (std::size_t i = 0; i < m; ++i) {
        const std::size_t pc_i = result.popcounts[i];
        if (pc_i == 0)
            continue;
        const std::uint64_t* words_i = row_words[i];
        BitVector& mask = result.subset_mask[i];
        const std::size_t end = bucket_end[pc_i];
        const std::size_t kept = signatureScanWords(
            sig_sorted.data(), end, sig[i], survivors.data());
        if (signature_is_exact) {
            for (std::size_t s = 0; s < kept; ++s) {
                const std::size_t j = order[survivors[s]];
                if (j != i)
                    mask.set(j);
            }
            continue;
        }
        for (std::size_t s = 0; s < kept; ++s) {
            const std::size_t j = order[survivors[s]];
            if (j != i &&
                ops.isSubsetOfWords(row_words[j], words_i, nwords))
                mask.set(j);
        }
    }
    return result;
}

DetectionResult
Detector::detectNaive(const BitMatrix& tile) const
{
    const std::size_t m = tile.rows();
    DetectionResult result;
    result.subset_mask.assign(m, BitVector(m));
    result.popcounts.resize(m);

    for (std::size_t i = 0; i < m; ++i)
        result.popcounts[i] = tile.row(i).popcount();

    // TCAM search: for query row i, entry j matches iff S_j is a subset
    // of S_i. Empty rows are excluded here — an all-zero entry matches
    // every query but carries no reusable result, and the hardware's
    // valid bit masks it out of the match line.
    for (std::size_t i = 0; i < m; ++i) {
        const BitVector& query = tile.row(i);
        if (result.popcounts[i] == 0)
            continue;
        for (std::size_t j = 0; j < m; ++j) {
            if (j == i || result.popcounts[j] == 0)
                continue;
            if (result.popcounts[j] <= result.popcounts[i] &&
                tile.row(j).isSubsetOf(query)) {
                result.subset_mask[i].set(j);
            }
        }
    }
    return result;
}

} // namespace prosperity
