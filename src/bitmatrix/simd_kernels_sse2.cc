/**
 * @file
 * SSE2 tier: 128-bit (2-word) kernels, compiled with -msse2 only —
 * the x86-64 baseline ISA, no SSE4/POPCNT assumed. The win over
 * scalar is in the branchy kernels (subset / any / signature scan),
 * which test two words per compare; the popcount kernels delegate to
 * the scalar reference since SSE2 has no byte shuffle to build a
 * nibble-LUT popcount from. Exact-n safe and bit-identical to
 * word_kernels.h (enforced by tests/test_simd_kernels.cc).
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

bool
anySse2(const std::uint64_t* words, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m128i acc = _mm_setzero_si128();
        for (std::size_t k = 0; k < 8; k += 2)
            acc = _mm_or_si128(
                acc, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                         words + i + k)));
        if (!allZero(acc))
            return true;
    }
    for (; i + 2 <= n; i += 2) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(words + i));
        if (!allZero(v))
            return true;
    }
    for (; i < n; ++i)
        if (words[i])
            return true;
    return false;
}

std::uint64_t
signatureSse2(const std::uint64_t* words, std::size_t n)
{
    return signatureWords(words, n);
}

std::size_t
signatureScanSse2(const std::uint64_t* sigs, std::size_t n,
                  std::uint64_t query_sig, std::uint32_t* out)
{
    const std::uint64_t not_query = ~query_sig;
    const __m128i nq = _mm_set1_epi64x(
        static_cast<long long>(not_query));
    const __m128i zero = _mm_setzero_si128();
    std::size_t count = 0;
    std::size_t t = 0;
    for (; t + 2 <= n; t += 2) {
        const __m128i s = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(sigs + t));
        const __m128i bad = _mm_and_si128(s, nq);
        // cmpeq_epi32 + movemask: a 64-bit lane is zero iff all eight
        // of its bytes compare equal to zero.
        const int mask = _mm_movemask_epi8(_mm_cmpeq_epi32(bad, zero));
        if ((mask & 0x00ff) == 0x00ff)
            out[count++] = static_cast<std::uint32_t>(t);
        if ((mask & 0xff00) == 0xff00)
            out[count++] = static_cast<std::uint32_t>(t + 1);
    }
    for (; t < n; ++t)
        if ((sigs[t] & not_query) == 0)
            out[count++] = static_cast<std::uint32_t>(t);
    return count;
}

} // namespace

const SimdOps&
simdOpsSse2()
{
    static const SimdOps ops = {
        SimdTier::kSse2, "sse2",       popcountSse2,
        isSubsetSse2,    anySse2,      signatureSse2,
        signatureScanSse2,
    };
    return ops;
}

} // namespace prosperity::detail

#endif // __SSE2__
