/**
 * @file
 * AVX-512 tier: 512-bit (8-word) kernels. Requires F+BW+VL+DQ plus
 * VPOPCNTDQ (the dispatcher checks all five CPU bits and the OS zmm
 * state before selecting this tier), so popcounts are a single
 * vpopcntq per cache line and the subset test comes straight out of a
 * mask register. Exact-n safe and bit-identical to
 * the scalar reference (enforced by tests/test_simd_kernels.cc).
 */

#if defined(__AVX512F__) && defined(__AVX512BW__) &&                   \
    defined(__AVX512VL__) && defined(__AVX512DQ__) &&                  \
    defined(__AVX512VPOPCNTDQ__)

#include <immintrin.h>

#include <bit>

#include "bitmatrix/simd_tiers.h"

namespace prosperity::detail {

namespace {

std::size_t
popcountAvx512(const std::uint64_t* words, std::size_t n)
{
    __m512i acc = _mm512_setzero_si512();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i v = _mm512_loadu_si512(words + i);
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
    }
    std::size_t count =
        static_cast<std::size_t>(_mm512_reduce_add_epi64(acc));
    for (; i < n; ++i)
        count += static_cast<std::size_t>(std::popcount(words[i]));
    return count;
}

bool
isSubsetAvx512(const std::uint64_t* sub, const std::uint64_t* super,
               std::size_t n)
{
    std::size_t i = 0;
    // One cache line (one zmm vector) per early-exit test.
    for (; i + 8 <= n; i += 8) {
        const __m512i violation = _mm512_andnot_si512(
            _mm512_loadu_si512(super + i), _mm512_loadu_si512(sub + i));
        if (_mm512_test_epi64_mask(violation, violation) != 0)
            return false;
    }
    for (; i < n; ++i)
        if (sub[i] & ~super[i])
            return false;
    return true;
}

} // namespace

const SimdOps&
simdOpsAvx512()
{
    static const SimdOps ops = {SimdTier::kAvx512, "avx512", popcountAvx512,
                                isSubsetAvx512};
    return ops;
}

} // namespace prosperity::detail

#endif // AVX-512 feature set
