/**
 * @file
 * Unit tests for the deterministic PRNG all experiments are seeded with.
 */

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "sim/rng.h"

namespace prosperity {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++equal;
    EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
    EXPECT_EQ(rng.nextBelow(0), 0u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextBelow(1), 0u);
}

TEST(Rng, NextBelowIsRoughlyUniform)
{
    Rng rng(21);
    std::vector<int> counts(8, 0);
    const int draws = 8000;
    for (int i = 0; i < draws; ++i)
        ++counts[rng.nextBelow(8)];
    for (int c : counts) {
        EXPECT_GT(c, draws / 8 - 200);
        EXPECT_LT(c, draws / 8 + 200);
    }
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(3);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(5);
    int hits = 0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i)
        hits += rng.nextBool(0.2) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / draws, 0.2, 0.015);
}

TEST(Rng, SplitStreamsAreIndependentAndStable)
{
    const Rng parent(77);
    Rng a = parent.split(1);
    Rng b = parent.split(2);
    Rng a2 = parent.split(1);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, a2.next()); // same stream id => same sequence
        if (va == b.next())
            ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator)
{
    static_assert(Rng::min() == 0);
    static_assert(Rng::max() == ~0ULL);
    Rng rng(1);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 100; ++i)
        seen.insert(rng());
    EXPECT_GT(seen.size(), 95u);
}

/**
 * Reference Binomial(n, p): the per-word loop — one nextBernoulliWord
 * per 64 trials, the last word masked to the remaining trials. The
 * batched Rng::nextBinomial must match it count for count and consume
 * exactly the same draws.
 */
std::size_t
referenceBinomial(Rng& rng, std::size_t n, double p)
{
    std::size_t count = 0;
    while (n >= 64) {
        count += static_cast<std::size_t>(
            std::popcount(rng.nextBernoulliWord(p)));
        n -= 64;
    }
    if (n > 0) {
        const std::uint64_t mask = (1ULL << n) - 1;
        count += static_cast<std::size_t>(
            std::popcount(rng.nextBernoulliWord(p) & mask));
    }
    return count;
}

/** Reference nextBelow: threshold computed up front on every draw. */
std::uint64_t
referenceBelow(Rng& rng, std::uint64_t bound)
{
    if (bound == 0)
        return 0;
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        const std::uint64_t r = rng.next();
        if (r >= threshold)
            return r % bound;
    }
}

TEST(Rng, NextBelowMatchesUpFrontThresholdReference)
{
    // Bounds near 2^64 make draws below the bound (the only ones whose
    // threshold is computed lazily) common, and rejections frequent.
    const std::uint64_t bounds[] = {0,
                                    1,
                                    2,
                                    7,
                                    1000,
                                    (1ULL << 32) + 1,
                                    (1ULL << 63) + 1,
                                    3ULL << 62,
                                    ~0ULL};
    for (const std::uint64_t bound : bounds) {
        Rng lazy(bound ^ 0x5eed), reference(bound ^ 0x5eed);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(lazy.nextBelow(bound), referenceBelow(reference, bound))
                << "bound=" << bound << " draw " << i;
        EXPECT_EQ(lazy.next(), reference.next()) << "bound=" << bound;
    }
}

TEST(Rng, BatchedBinomialMatchesPerWordReference)
{
    const std::size_t ns[] = {0, 1, 63, 64, 65, 4096, 10000};
    const double ps[] = {0.0, 1e-9, 0.3, 0.999, 1.0};
    std::uint64_t seed = 1;
    for (const std::size_t n : ns)
        for (const double p : ps) {
            Rng batched(seed), reference(seed);
            ++seed;
            for (int draw = 0; draw < 3; ++draw)
                EXPECT_EQ(batched.nextBinomial(n, p),
                          referenceBinomial(reference, n, p))
                    << "n=" << n << " p=" << p << " draw=" << draw;
            // Equal follow-on raw draws: both consumed the same stream.
            for (int i = 0; i < 4; ++i)
                EXPECT_EQ(batched.next(), reference.next())
                    << "n=" << n << " p=" << p << " raw draw " << i;
        }
}

} // namespace
} // namespace prosperity
