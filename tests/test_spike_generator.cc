/**
 * @file
 * Tests for the calibrated synthetic spike generator — the stand-in for
 * the paper's recorded PyTorch activations.
 */

#include <gtest/gtest.h>

#include "bitmatrix/simd_dispatch.h"
#include "gen/spike_generator.h"

namespace prosperity {
namespace {

ActivationProfile
defaultProfile()
{
    ActivationProfile p;
    p.bit_density = 0.25;
    p.cluster_fraction = 0.7;
    p.bank_size = 12;
    p.subset_drop_prob = 0.3;
    p.temporal_repeat = 0.4;
    return p;
}

TEST(SpikeGenerator, Deterministic)
{
    const SpikeGenerator gen(defaultProfile(), 42);
    const BitMatrix a = gen.generate(128, 64, 4, 3);
    const BitMatrix b = gen.generate(128, 64, 4, 3);
    EXPECT_EQ(a, b);
}

/** FNV-1a fold over row hashes — canonical thanks to tail masking. */
std::uint64_t
matrixHash(const BitMatrix& m)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t r = 0; r < m.rows(); ++r) {
        h ^= m.row(r).hash();
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(SpikeGenerator, WordBatchedOutputMatchesPinnedHashes)
{
    // Pins the exact bit stream of the word-batched generator per
    // (seed, layer). Any change to the draw order — Rng batching,
    // BitVector::randomize, the binomial keep-length draw — shows up
    // here before it silently shifts the calibration anchors.
    const struct
    {
        std::uint64_t seed;
        std::size_t layer;
        std::uint64_t hash;
    } pins[] = {
        {42ULL, 0, 0x9e0597ee4dfceaedULL},
        {42ULL, 3, 0x0d5d70cbce924d92ULL},
        {7ULL, 1, 0x5109284548edce31ULL},
        {1234567ULL, 9, 0x11a6941fdc2e989eULL},
    };
    for (const auto& pin : pins) {
        const SpikeGenerator gen(defaultProfile(), pin.seed);
        const BitMatrix m = gen.generate(128, 64, 4, pin.layer);
        EXPECT_EQ(matrixHash(m), pin.hash)
            << "seed=" << pin.seed << " layer=" << pin.layer;
    }
}

TEST(SpikeGenerator, PinnedHashesHoldUnderEveryForcedSimdTier)
{
    // The SIMD tier must never change a generated bit: the same pins
    // as above, re-checked with the dispatch forced to each tier the
    // host supports (scalar included). A divergence here means a
    // vector kernel or the batched RNG broke the equivalence contract
    // of bitmatrix/simd_dispatch.h.
    const struct
    {
        std::uint64_t seed;
        std::size_t layer;
        std::uint64_t hash;
    } pins[] = {
        {42ULL, 0, 0x9e0597ee4dfceaedULL},
        {42ULL, 3, 0x0d5d70cbce924d92ULL},
        {7ULL, 1, 0x5109284548edce31ULL},
        {1234567ULL, 9, 0x11a6941fdc2e989eULL},
    };
    for (const SimdTier tier : availableSimdTiers()) {
        ASSERT_TRUE(setSimdTier(tier)) << simdTierName(tier);
        for (const auto& pin : pins) {
            const SpikeGenerator gen(defaultProfile(), pin.seed);
            const BitMatrix m = gen.generate(128, 64, 4, pin.layer);
            EXPECT_EQ(matrixHash(m), pin.hash)
                << "tier=" << simdTierName(tier) << " seed=" << pin.seed
                << " layer=" << pin.layer;
        }
    }
    resetSimdTier();
}

/** A heavily clustered profile: long bank orders, many union rows. */
ActivationProfile
clusteredProfile()
{
    ActivationProfile p = defaultProfile();
    p.bit_density = 0.3;
    p.cluster_fraction = 0.95;
    p.bank_size = 6;
    p.union_prob = 0.3;
    p.noise_insert_prob = 0.01;
    return p;
}

/**
 * Wide-shape pins, recorded from the generator that set every clustered
 * bit singly: k of one word, several words, more than one 512-bit
 * stride and a ragged tail; T of 1 and 4; bank orders far longer than
 * 64 entries, so keep-lengths span many words of binomial draws and
 * many prefix checkpoints.
 */
const struct WidePin
{
    bool clustered;
    std::size_t rows, cols, time_steps;
    std::uint64_t seed;
    std::size_t layer;
    std::uint64_t hash;
} kWidePins[] = {
    {false, 64, 64, 1, 42ULL, 2, 0x01c777e2b4599ae6ULL},
    {false, 96, 576, 4, 7ULL, 5, 0x055d7e7cd2cdca90ULL},
    {false, 64, 768, 1, 11ULL, 1, 0xff364a8b3f24e4d2ULL},
    {false, 48, 2304, 4, 3ULL, 8, 0xcca7966dc9822382ULL},
    {false, 40, 200, 4, 19ULL, 4, 0x7c6b33873e1bb498ULL},
    {true, 64, 64, 4, 5ULL, 3, 0x5cd07ca3dcbc1cc1ULL},
    {true, 128, 576, 1, 13ULL, 6, 0x42d8b2e81882fba2ULL},
    {true, 96, 768, 4, 17ULL, 2, 0x8071bbdcf2535da1ULL},
    {true, 32, 2304, 1, 23ULL, 7, 0x7803f7efb64bbb0cULL},
    {true, 40, 1000, 4, 29ULL, 1, 0xe330a171a761b818ULL},
};

TEST(SpikeGenerator, WideShapesMatchPinnedHashesUnderEveryForcedSimdTier)
{
    for (const SimdTier tier : availableSimdTiers()) {
        ASSERT_TRUE(setSimdTier(tier)) << simdTierName(tier);
        for (const WidePin& pin : kWidePins) {
            const SpikeGenerator gen(pin.clustered ? clusteredProfile()
                                                   : defaultProfile(),
                                     pin.seed);
            const BitMatrix m = gen.generate(pin.rows, pin.cols,
                                             pin.time_steps, pin.layer);
            EXPECT_EQ(matrixHash(m), pin.hash)
                << "tier=" << simdTierName(tier) << " " << pin.rows << "x"
                << pin.cols << " T=" << pin.time_steps
                << " seed=" << pin.seed;
        }
    }
    resetSimdTier();
}

TEST(SpikeGenerator, LayersHaveIndependentStreams)
{
    const SpikeGenerator gen(defaultProfile(), 42);
    const BitMatrix a = gen.generate(128, 64, 4, 1);
    const BitMatrix b = gen.generate(128, 64, 4, 2);
    EXPECT_NE(a, b);
}

TEST(SpikeGenerator, SeedsChangeOutput)
{
    const SpikeGenerator a(defaultProfile(), 1);
    const SpikeGenerator b(defaultProfile(), 2);
    EXPECT_NE(a.generate(64, 32, 4, 0), b.generate(64, 32, 4, 0));
}

TEST(SpikeGenerator, HitsTargetDensity)
{
    ActivationProfile p = defaultProfile();
    const SpikeGenerator gen(p, 7);
    // Average over layers to wash out the per-layer jitter.
    double total = 0.0;
    const int layers = 12;
    for (int i = 0; i < layers; ++i)
        total += gen.generate(512, 128, 4, i).density();
    EXPECT_NEAR(total / layers, p.bit_density, 0.05);
}

TEST(SpikeGenerator, LayerDensityJitterIsBounded)
{
    const SpikeGenerator gen(defaultProfile(), 7);
    for (std::size_t layer = 0; layer < 30; ++layer) {
        const double d = gen.layerDensity(layer);
        EXPECT_GE(d, 0.25 * 0.84);
        EXPECT_LE(d, 0.25 * 1.16);
    }
}

TEST(SpikeGenerator, TemporalRepeatCreatesExactCopies)
{
    ActivationProfile p = defaultProfile();
    p.temporal_repeat = 1.0;  // every row copies the previous step
    p.cluster_fraction = 0.0; // base rows fully random
    const SpikeGenerator gen(p, 5);
    const std::size_t positions = 32, t_steps = 4;
    const BitMatrix m = gen.generate(positions * t_steps, 48, t_steps, 0);
    for (std::size_t t = 1; t < t_steps; ++t)
        for (std::size_t i = 0; i < positions; ++i)
            EXPECT_EQ(m.row(t * positions + i), m.row(i))
                << "t=" << t << " i=" << i;
}

TEST(SpikeGenerator, ClusteredRowsAreSubsetsOfBankPatterns)
{
    // With full clustering and no iid rows, every row must be a subset
    // of one of bank_size base patterns; with a small bank, many row
    // pairs are subset-related — the structure ProSparsity exploits.
    ActivationProfile p = defaultProfile();
    p.cluster_fraction = 1.0;
    p.temporal_repeat = 0.0;
    p.bank_size = 4;
    const SpikeGenerator gen(p, 9);
    const BitMatrix m = gen.generate(128, 16, 1, 0);

    std::size_t subset_pairs = 0;
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.rows(); ++j)
            if (i != j && m.row(j).popcount() > 0 &&
                m.row(j).isSubsetOf(m.row(i)))
                ++subset_pairs;
    // Far more subset pairs than an iid matrix of the same density.
    EXPECT_GT(subset_pairs, m.rows());
}

TEST(SpikeGenerator, GenerateLayerUsesGemmShape)
{
    const SpikeGenerator gen(defaultProfile(), 3);
    LayerSpec layer;
    layer.gemm = {96, 48, 10};
    layer.time_steps = 4;
    const BitMatrix m = gen.generateLayer(layer, 0);
    EXPECT_EQ(m.rows(), 96u);
    EXPECT_EQ(m.cols(), 48u);
}

TEST(SpikeGenerator, GenerateLayerHonorsProfileOverride)
{
    // A layer's pinned profile is generated under the generator's seed
    // and the layer's own stream; other layers keep the workload's.
    const SpikeGenerator gen(defaultProfile(), 3);
    LayerSpec layer;
    layer.gemm = {96, 200, 10};
    layer.time_steps = 4;
    const BitMatrix plain = gen.generateLayer(layer, 5);
    EXPECT_EQ(plain, gen.generate(96, 200, 4, 5));

    layer.profile_override = clusteredProfile();
    const BitMatrix pinned = gen.generateLayer(layer, 5);
    EXPECT_EQ(pinned,
              SpikeGenerator(clusteredProfile(), 3).generate(96, 200, 4, 5));
    EXPECT_NE(pinned, plain);
}

TEST(SpikeGenerator, EmptyShapesAreHandled)
{
    const SpikeGenerator gen(defaultProfile(), 3);
    const BitMatrix m = gen.generate(0, 16, 4, 0);
    EXPECT_EQ(m.rows(), 0u);
}

TEST(RandomWeights, RangeAndDeterminism)
{
    const WeightMatrix a = randomWeights(16, 8, 11);
    const WeightMatrix b = randomWeights(16, 8, 11);
    EXPECT_EQ(a, b);
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c) {
            EXPECT_GE(a.at(r, c), -127);
            EXPECT_LE(a.at(r, c), 127);
        }
}

} // namespace
} // namespace prosperity
