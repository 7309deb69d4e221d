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

bool
anyScalar(const std::uint64_t* words, std::size_t n)
{
    return anyWord(words, n);
}

std::uint64_t
signatureScalar(const std::uint64_t* words, std::size_t n)
{
    return signatureWords(words, n);
}

std::size_t
signatureScanScalar(const std::uint64_t* sigs, std::size_t n,
                    std::uint64_t query_sig, std::uint32_t* out)
{
    return signatureScanWords(sigs, n, query_sig, out);
}

} // namespace

const SimdOps&
simdOpsScalar()
{
    static const SimdOps ops = {
        SimdTier::kScalar, "scalar",        popcountScalar,
        isSubsetScalar,    anyScalar,       signatureScalar,
        signatureScanScalar,
    };
    return ops;
}

} // namespace prosperity::detail
