/**
 * @file
 * SSE2 tier: 128-bit (2-word) kernels, compiled with -msse2 only —
 * the x86-64 baseline ISA, no SSE4/POPCNT assumed. The win over
 * scalar is in the subset test, which tests two words per compare;
 * popcount delegates to the scalar reference (inline SWAR, no libgcc
 * call) since SSE2 has no byte shuffle to build a nibble-LUT popcount
 * from. Exact-n safe and bit-identical to word_kernels.h (enforced by
 * tests/test_simd_kernels.cc).
 */

#if defined(__SSE2__)

#include <emmintrin.h>

#include "bitmatrix/simd_tiers.h"
#include "bitmatrix/word_kernels.h"

namespace prosperity::detail {

namespace {

/** True iff both 64-bit lanes of `v` are zero. */
inline bool
allZero(__m128i v)
{
    const __m128i is_zero = _mm_cmpeq_epi32(v, _mm_setzero_si128());
    return _mm_movemask_epi8(is_zero) == 0xffff;
}

std::size_t
popcountSse2(const std::uint64_t* words, std::size_t n)
{
    return popcountWords(words, n);
}

bool
isSubsetSse2(const std::uint64_t* sub, const std::uint64_t* super,
             std::size_t n)
{
    std::size_t i = 0;
    // One cache line (8 words, four vectors) per early-exit test.
    for (; i + 8 <= n; i += 8) {
        __m128i violation = _mm_setzero_si128();
        for (std::size_t k = 0; k < 8; k += 2) {
            const __m128i vsub = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(sub + i + k));
            const __m128i vsuper = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(super + i + k));
            violation = _mm_or_si128(violation,
                                     _mm_andnot_si128(vsuper, vsub));
        }
        if (!allZero(violation))
            return false;
    }
    for (; i + 2 <= n; i += 2) {
        const __m128i vsub = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(sub + i));
        const __m128i vsuper = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(super + i));
        if (!allZero(_mm_andnot_si128(vsuper, vsub)))
            return false;
    }
    for (; i < n; ++i)
        if (sub[i] & ~super[i])
            return false;
    return true;
}

} // namespace

const SimdOps&
simdOpsSse2()
{
    static const SimdOps ops = {SimdTier::kSse2, "sse2", popcountSse2,
                                isSubsetSse2};
    return ops;
}

} // namespace prosperity::detail

#endif // __SSE2__
