/**
 * @file
 * Synthetic spike-activation generation.
 *
 * The paper's artifact records spike matrices from trained PyTorch
 * models; this repository generates them synthetically (DESIGN.md
 * substitution #1). The generator reproduces the two statistics that
 * ProSparsity's benefit depends on:
 *
 *  1. bit density — calibrated per workload to the paper's Fig. 11
 *     values, with mild deterministic per-layer jitter;
 *  2. combinatorial row similarity — a fraction of rows is drawn from a
 *     small bank of base patterns, with 1-bits randomly *dropped*
 *     (yielding proper subsets => partial matches) and occasional exact
 *     re-emission (exact matches); consecutive time steps re-emit rows
 *     with probability `temporal_repeat`.
 *
 * All draws are made from per-(seed, layer) streams so a layer's matrix
 * is identical regardless of the order layers are simulated in — or
 * whether other layers are generated at all (the workload runner skips
 * generation for designs that read no spikes). Generation cost scales
 * with words, not bits:
 *
 *  - i.i.d. rows and bank base patterns are filled a whole row per
 *    batch (BitVector::randomize / Rng::nextBernoulliWords);
 *  - clustered keep-lengths are binomial draws (Rng::nextBinomial)
 *    counted over chunks of Bernoulli words with the dispatched
 *    popcount kernel;
 *  - a clustered row is a keep-length prefix of one bank entry's
 *    shuffled spike order, so each entry precomputes the bitmap of
 *    every prefix whose length is a multiple of a fixed checkpoint
 *    step. A row ORs in the longest checkpoint within its keep-length
 *    and sets fewer than a step of single bits, instead of setting
 *    every kept bit.
 *
 * None of this changes a drawn value or the draw order: the output is
 * a pure function of (seed, layer_index, shape, profile) — the
 * determinism contract tested by the fixed-hash pins in
 * tests/test_spike_generator.cc, under every SIMD tier.
 */

#ifndef PROSPERITY_GEN_SPIKE_GENERATOR_H
#define PROSPERITY_GEN_SPIKE_GENERATOR_H

#include <cstdint>

#include "bitmatrix/bit_matrix.h"
#include "bitmatrix/dense_matrix.h"
#include "snn/layer.h"
#include "snn/workload.h"

namespace prosperity {

/** Generates the spike matrices of a workload's layers. */
class SpikeGenerator
{
  public:
    SpikeGenerator(ActivationProfile profile, std::uint64_t seed);

    /**
     * Generate a `rows` x `cols` spike matrix whose rows are laid out
     * t-major over `time_steps` steps (rows/time_steps positions each).
     *
     * @param layer_index Seeds this layer's independent stream and the
     *        deterministic density jitter.
     */
    BitMatrix generate(std::size_t rows, std::size_t cols,
                       std::size_t time_steps,
                       std::size_t layer_index) const;

    /**
     * Generate the activation of one lowered layer. A layer that pins
     * its own ActivationProfile (LayerSpec::profile_override, from
     * declarative models) is generated from that profile under this
     * generator's seed; every other layer uses profile().
     */
    BitMatrix generateLayer(const LayerSpec& layer,
                            std::size_t layer_index) const;

    /** Effective bit density targeted for `layer_index` (with jitter). */
    double layerDensity(std::size_t layer_index) const;

    const ActivationProfile& profile() const { return profile_; }

  private:
    ActivationProfile profile_;
    std::uint64_t seed_;
};

/** Uniform random int8 weight matrix in [-127, 127]. */
WeightMatrix randomWeights(std::size_t k, std::size_t n,
                           std::uint64_t seed);

} // namespace prosperity

#endif // PROSPERITY_GEN_SPIKE_GENERATOR_H
