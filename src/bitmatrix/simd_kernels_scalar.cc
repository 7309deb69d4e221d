/**
 * @file
 * Scalar tier table: thin wrappers over the reference loops in
 * word_kernels.h. This tier is always available and is the ground
 * truth every vector tier is differentially tested against.
 */

#include "bitmatrix/simd_tiers.h"
#include "bitmatrix/word_kernels.h"

namespace prosperity::detail {

namespace {

std::size_t
popcountScalar(const std::uint64_t* words, std::size_t n)
{
    return popcountWords(words, n);
}

bool
isSubsetScalar(const std::uint64_t* sub, const std::uint64_t* super,
               std::size_t n)
{
    return isSubsetOfWords(sub, super, n);
}

} // namespace

const SimdOps&
simdOpsScalar()
{
    static const SimdOps ops = {SimdTier::kScalar, "scalar", popcountScalar,
                                isSubsetScalar};
    return ops;
}

} // namespace prosperity::detail
